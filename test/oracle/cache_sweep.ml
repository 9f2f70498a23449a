module Cache = Pc_server.Cache

let affected ~touched ~rows (m : Cache.meta) =
  List.exists (fun j -> List.mem j m.pcs) touched
  || (not m.missing_only)
     && (match rows with
        | None -> false
        | Some (schema, tuples) ->
            Array.exists
              (fun row ->
                try Eval_oracle.pred_eval schema m.where_ row with
                | Not_found | Invalid_argument _ -> true)
              tuples)
