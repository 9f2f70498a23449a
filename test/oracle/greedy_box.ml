module I = Pc_interval.Interval
module Pred = Pc_predicate.Pred
module Cnf = Pc_predicate.Cnf
module Sat = Pc_predicate.Sat
module Box = Pc_predicate.Box
module Q = Pc_query.Query
module Pc = Pc_core.Pc
module Pc_set = Pc_core.Pc_set
open Pc_core.Bounds
open Pc_core.Bounds.Greedy

exception Found_infeasible

(* Effective frequency lower bound under query pushdown: a PC's missing
   rows may hide outside the query region unless its predicate is wholly
   contained in it, so kl is only enforceable in that case. *)
let effective_kl qpred (pc : Pc.t) =
  if pc.Pc.freq_lo = 0 then 0
  else if qpred = Pred.tt then pc.Pc.freq_lo
  else begin
    let escapes =
      Sat.check (Cnf.conj (Cnf.of_pred pc.Pc.pred) (Cnf.of_neg_pred qpred))
    in
    if escapes then 0 else pc.Pc.freq_lo
  end

(* One gcell per PC overlapping the query region; [None] when the
   system is infeasible. Specialized to the one-PC-per-cell shape: the
   PC's in-query region box is its predicate's box conjoined with the
   query once, and reused for every attribute. *)
let prepare ~opts set (query : Q.t) =
  let qpred = query.Q.where_ in
  let agg_attr = Q.agg_attr query in
  try
    let cells =
      List.filter_map
        (fun i ->
          let pc = Pc_set.get set i in
          let region =
            match Box.of_pred pc.Pc.pred with
            | None ->
                if pc.Pc.freq_lo > 0 then raise Found_infeasible;
                None
            | Some b -> Box.add_pred b qpred
          in
          match region with
          | None -> None (* no overlap with the query region *)
          | Some box ->
              let value_iv attr =
                let iv = Pc.value_interval pc attr in
                if opts.tighten then I.intersect iv (Box.num_interval box attr)
                else Some iv
              in
              let inhabitable =
                List.for_all
                  (fun a -> Option.is_some (value_iv a))
                  (Pc.value_attrs pc)
              in
              if not inhabitable then begin
                (* predicate region overlaps the query but admits no
                   valid row values *)
                if effective_kl qpred pc > 0 then raise Found_infeasible;
                None
              end
              else begin
                let l, u =
                  match agg_attr with
                  | None -> (1., 1.)
                  | Some a -> (
                      match value_iv a with
                      | None -> (0., 0.)
                      | Some iv -> (I.lo_float iv, I.hi_float iv))
                in
                Some { u; l; kl = effective_kl qpred pc; ku = pc.Pc.freq_hi }
              end)
        (List.init (Pc_set.size set) Fun.id)
    in
    Ok cells
  with Found_infeasible -> Error Infeasible
