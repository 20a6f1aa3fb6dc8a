(** Theory solver for conjunctions of linear integer constraints:
    Fourier–Motzkin elimination with integer tightening, split over
    connected components.

    Reporting [false] (infeasible) is always sound; [true] may
    over-approximate satisfiability (rational shadow, elimination
    limits) — the safe polarity for the validity checker built on
    top. *)

module SMap : Map.S with type key = string

type lin = { coeffs : int SMap.t; const : int }
(** [Σ coeffs(x)·x + const], a linear integer form. *)

val lin_zero : lin
val lin_const : int -> lin
val lin_var : string -> lin
val lin_add : lin -> lin -> lin
val lin_scale : int -> lin -> lin
val lin_sub : lin -> lin -> lin
val lin_is_const : lin -> bool
val pp_lin : Format.formatter -> lin -> unit

val feasible : eqs:lin list -> ineqs:lin list -> bool
(** Feasibility of [⋀ eqs = 0 ∧ ⋀ ineqs ≤ 0] over the integers
    ([false] is definite). *)

val split : eqs:lin list -> ineqs:lin list -> (lin list * lin list) list
(** The connected components [feasible] decides, in its order: each
    one's equalities and inequalities, in input order (constants belong
    to none). Without a false constant, [feasible ~eqs ~ineqs] decides
    [feasible] of each in turn, with the same FM work, up to the first
    infeasible one. Exposed for the tests' reference of a context. *)

(** {2 The two phases of one component}

    [feasible] decides each connected component as
    [fm (elim_eqs eqs ineqs)], answering [false] on [Infeasible]. The
    phases are exposed for the tests, which keep the list-based
    elimination as the reference [fm] must agree with, and the
    sequential substitution as the one [elim_eqs] must agree with. *)

exception Infeasible
(** A constant contradiction. *)

val fm_limit : int
(** Row count beyond which elimination gives up and answers [true]. *)

val tighten : lin -> lin option
(** Normalize [lin ≤ 0] by the gcd of its coefficients; [None] if it is
    a trivially true constant. Raises [Infeasible] on a false one. *)

val elim_eqs : lin list -> lin list -> lin list
(** [elim_eqs eqs ineqs]: the inequalities left once the equalities are
    substituted away (or split in two when no coefficient is ±1). Raises
    [Infeasible].

    The equalities are solved in order under one composed substitution,
    which is applied to each split equality and each inequality once.
    The result is the rows of substituting each solved equality into
    every remaining row in turn, equal by bindings and in the same
    order: the split rows [e; -e] of later equalities first, then the
    inequalities. Inputs must carry no zero coefficient. *)

val fm : lin list -> bool
(** Fourier–Motzkin elimination of [⋀ rows ≤ 0], one variable a round,
    the variable with the fewest (positive × negative) row pairs first.
    A round keeps one entry per distinct row with its multiplicity and
    builds each distinct pair of entries once, yet takes the same
    decisions (variable, size limit, verdict) as the procedure on the
    plain row list, ties broken as an unseeded [Hashtbl] of the
    variables would fold (so not by [OCAMLRUNPARAM=R]'s seed). The rows
    are merged by bindings, and the distinct ones converted to int
    arrays over the system's variables numbered in name order. Counts
    the pairs built in the profile counter
    [lia.fm_rows] and the rows the list procedure builds in
    [lia.fm_row_copies]. Raises [Infeasible].

    [fm] is two steps: the row list becomes the first round's entries
    ({!first_round}), and the rounds run on those entries without
    mutating them. A component's Phase 1 keeps its entries ({!kept}),
    so a check that adds rows to it starts the rounds from them. *)

val first_round : lin list -> (lin * int * int) list
(** The first round's entries of a row list, in the order of their
    first copies: each distinct row (equal by bindings) with its number
    of copies and the position of its last copy. *)

type kept
(** The first round's entries of [splits @ rows], kept: the distinct
    rows, over the numbering of their variables, with their
    multiplicities and last positions, an index from each row to its
    entry, and how many entries were first seen among [splits]. *)

val keep : lin list -> lin list -> kept
(** [keep splits rows]. *)

val kept_first_round : kept -> lin option -> lin list -> (lin * int * int) list
(** [kept_first_round (keep splits rows) g extra] is [first_round
    (splits @ Option.to_list g @ rows @ extra)], built from a copy of
    the kept entries: only [g] and [extra] are converted and hashed,
    unless one of them names a variable the kept rows lack, and the
    kept entries are renumbered. *)

val fm_kept : kept -> lin option -> lin list -> bool
(** [fm_kept (keep splits rows) g extra] is [fm (splits @
    Option.to_list g @ rows @ extra)]: the same verdict and the same
    profile counts, from the same entries. Raises [Infeasible]. *)

(** Literals as consumed from the DPLL layer. *)
type literal =
  | Le0 of lin  (** lin ≤ 0 *)
  | Eq0 of lin  (** lin = 0 *)
  | Ne0 of lin  (** lin ≠ 0 *)

val pp_literal : Format.formatter -> literal -> unit

val sat_literals : literal list -> bool
(** Satisfiability of a conjunction of literals. Without a non-constant
    disequality this is {!feasible} (a constant one is decided on its
    own). With one, the literals are prepared as one {!context} and
    decided as [sat_with (context lits) None]: the equalities and
    inequalities first, then each disequality [d ≠ 0] case-split into
    [d ≤ −1 ∨ d ≥ 1]. Up to four disequalities are split as they come.
    Past four, a relevance filter runs first and keeps only those whose
    equality [d = 0] is consistent with the rest; if more than twelve
    of those remain, each is refuted on its own (both cases infeasible),
    which over-approximates their joint satisfiability. *)

type context
(** A conjunction of literals prepared for {!sat_literals} with one more
    literal: its equalities and inequalities split into components once,
    and kept as each variable's number and component root and each
    constraint's variable numbers. Each component's Phase 1
    ({!elim_eqs}: its composed substitution, its split rows and its
    substituted inequalities, or the equalities' contradiction) is done
    the first time a query decides that component, and kept, and so are
    the first round's entries of its rows ({!kept}) the first time a
    query runs {!fm} on them: every later check of the component starts
    from a copy of those entries and hashes only the rows it adds. So is
    the component's verdict alone, the first time a check leaves the
    component untouched: a system is infeasible exactly when one of its
    components is, and those rows never change, so every later check
    that leaves it untouched reads the verdict. *)

val context : literal list -> context

val sat_with : context -> literal option -> bool
(** [sat_with (context ls) l] is [sat_literals (ls @ Option.to_list l)],
    and decides the same components, from the same rows, in the same
    order, except that a component no new row touches is decided at
    most once per context (its verdict is kept): [lia.fm_rows] is never
    more than [sat_literals]'s, and equal on a fresh context without
    disequalities. An equality [l], numbered before every inequality,
    splits the system anew; every other system is decided from the
    context's split.

    A final inequality [g] only merges the components it shares a
    variable with: a component it does not touch is decided from its
    kept Phase 1, and so is the one [g] alone joins (with fresh
    variables or none), [g] under the substitution going first among
    the inequalities; a merge of two or more components runs Phase 1
    anew. The profile counters [lia.phase1_prepared] and
    [lia.phase1_rebuilt] count the merged components decided each way.

    A disequality case adds its rows [c] (last first) before the
    inequalities, and a relevance check adds [d = 0] before the
    equalities. Their variables are numbered, and their joins made,
    where the system [feasible] would split numbers and joins them, so
    the components a row touches are re-joined in that order to find
    their roots. A component no row touches is decided from its kept
    Phase 1; a group of new rows joining at most one component from
    that component's Phase 1 ([d] solved last, the case rows after its
    inequalities); a group merging two or more anew. The profile
    counters [lia.split_prepared] and [lia.split_rebuilt] count the
    cases and relevance checks decided each way ([rebuilt] when one of
    their groups merges two or more components). *)
