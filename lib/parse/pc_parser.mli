(** Parser for the predicate-constraint DSL, so constraints can be
    checked into a repository next to the analyses they guard:

    {v
    -- the most expensive Chicago product costs 149.99;
    -- at most 5 are sold
    constraint chicago_cap:
      branch = 'Chicago' => price in [0.0, 149.99], count [0, 5];

    constraint everything:
      true => price in [0.0, 149.99], count [0, 100];
    v}

    A file is a sequence of such declarations; [--] starts a line
    comment. Value constraints may list several ranges joined by AND, or
    be the keyword [none] when the constraint only bounds frequency. *)

val parse : string -> Pc_core.Pc.t list
(** Raises [Failure] on syntax errors. *)

val parse_one : string -> Pc_core.Pc.t

val to_dsl : Pc_core.Pc.t -> string
(** Render a PC back into parseable DSL text: {!parse_one} reads it back
    as the same PC, bit for bit, for predicates with at most one range
    per numeric attribute — closed, open, half-open or rays, an open end
    printed strict ([a >= lo and a < hi]) — and categorical [=], [<>],
    [in] and [not in] atoms (quotes inside a string are doubled), and
    closed value ranges. Numbers print through
    {!Pc_util.Float_text.to_string}. *)
