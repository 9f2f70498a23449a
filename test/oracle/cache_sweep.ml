module Cache = Pc_server.Cache
module Pred = Pc_predicate.Pred

let affected ~touched ~rows = function
  | None -> true
  | Some (m : Cache.meta) ->
      List.exists (fun j -> List.mem j m.pcs) touched
      || (not m.missing_only)
         && (match rows with
            | None -> false
            | Some (schema, tuples) ->
                Array.exists
                  (fun row ->
                    try Pred.eval schema m.where_ row with
                    | Not_found | Invalid_argument _ -> true)
                  tuples)
