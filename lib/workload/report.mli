(** Fixed-width text tables for the experiment harness output, so each
    figure/table prints in a shape directly comparable to the paper. *)

val table : header:string list -> string list list -> unit
(** Prints to stdout with column auto-sizing. Rows shorter than the header
    are right-padded. *)

val section : string -> unit
(** Prints a banner. *)

val fnum : float -> string
(** Compact number formatting: 4 significant digits, scientific beyond
    1e6, "inf"/"nan" spelled out. *)

val fpct : float -> string
(** Percent with 2 decimals. *)

val json_of_summary : Metrics.summary -> string
(** One JSON object for a workload summary. Always valid JSON: non-finite
    floats (e.g. the median over-estimation of an empty workload, which
    is [nan]) serialize as [null], never as bare [nan]/[inf] tokens. *)
