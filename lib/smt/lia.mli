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

(** {2 The two phases of one component}

    [feasible] decides each connected component as
    [fm (elim_eqs eqs ineqs)], answering [false] on [Infeasible]. The
    phases are exposed for the tests, which keep the list-based
    elimination as the reference [fm] must agree with. *)

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
    [Infeasible]. *)

val fm : lin list -> bool
(** Fourier–Motzkin elimination of [⋀ rows ≤ 0], one variable a round,
    the variable with the fewest (positive × negative) row pairs first.
    A round keeps one entry per distinct row with its multiplicity and
    builds each distinct pair of entries once, yet takes the same
    decisions (variable, size limit, verdict) as the procedure on the
    plain row list. Counts the pairs built in the profile counter
    [lia.fm_rows] and the rows the list procedure builds in
    [lia.fm_row_copies]. Raises [Infeasible]. *)

(** Literals as consumed from the DPLL layer. *)
type literal =
  | Le0 of lin  (** lin ≤ 0 *)
  | Eq0 of lin  (** lin = 0 *)
  | Ne0 of lin  (** lin ≠ 0 *)

val pp_literal : Format.formatter -> literal -> unit

val sat_literals : literal list -> bool
(** Satisfiability of a conjunction of literals. Disequalities are
    pre-filtered (only those whose equality is consistent with the rest
    constrain anything), then either exactly case-split (few) or
    refuted independently (many; over-approximate). *)

type context
(** A conjunction of literals prepared for {!sat_literals} with one more
    literal: its equalities and inequalities split into components once,
    and kept as each constraint's and each variable's component. *)

val context : literal list -> context

val sat_with : context -> literal option -> bool
(** [sat_with (context ls) l] is [sat_literals (ls @ Option.to_list l)],
    and decides the same components, from the same lists, in the same
    order. A final inequality only merges the components it shares a
    variable with, and a disequality leaves the split as it is; an
    equality, numbered before every inequality, splits the system
    anew. *)
