(** The liquid fixpoint solver: predicate abstraction by iterative
    weakening (Rondon et al. 2008; Cosman & Jhala 2017).

    Each κ variable starts at the conjunction of all sort-correct
    qualifier instantiations; clauses with κ heads repeatedly knock out
    conjuncts not implied by their hypotheses until a fixpoint is
    reached (the strongest solution in the qualifier lattice); the
    remaining concrete-head clauses are then checked under it.

    One schedule is provided: the incremental one
    ({!solve_clauses_incremental} and the slice API below) solves the
    κ-dependency graph SCC by SCC in topological order ({!Kgraph}),
    re-weakening a clause only when a κ hypothesis shrank. It converges
    to the fixpoint of the plain sweep over every κ-headed clause, with
    identical verdicts, solutions and failure order. That sweep is the
    reference the tests and the fuzzer compare against
    ([Flux_fuzz.Reference]); it builds on {!init_system},
    {!sliced_hyps} and {!final_check}.

    The solving and clause-checking entry points take an optional
    [config] (default
    {!Flux_smt.Config.default}); its [slice], [absint] and
    [absint_crosscheck] fields govern hypothesis slicing and the
    pre-solver discharge ({!Flux_absint.Discharge}). *)

open Flux_smt

type solution = (string, Term.t list) Hashtbl.t
(** κ name → solution conjuncts over the κ's formal parameters. *)

(** A concrete-head clause that failed under the final solution. *)
type failure = {
  f_tag : int;  (** caller-side tag of the failing head *)
  f_clause : Horn.clause;
  f_lhs : Term.t;  (** hypotheses after solution substitution *)
  f_rhs : Term.t;
}

type result = Sat of solution | Unsat of failure list * solution

exception Unbound_kvar of string
(** Raised when a clause's {e head} applies an undeclared κ (a ⊤
    default there would make the clause vacuously valid and mask a
    missing declaration). Undeclared κs in hypothesis position still
    default to ⊤, which only weakens the left-hand side and is sound. *)

type stats = {
  mutable iterations : int;
  mutable weaken_checks : int;
  mutable final_checks : int;
  mutable scc_count : int;
  mutable reweaken_skipped : int;
      (** clause evaluations skipped because no κ hypothesis shrank *)
}

val stats : unit -> stats
(** The calling domain's fixpoint statistics (domain-local, like
    {!Flux_smt.Solver.stats}). *)

val reset_stats : unit -> unit

val solve_clauses_incremental :
  ?config:Config.t ->
  ?qualifiers:Qualifier.t list ->
  kvars:Horn.kvar list ->
  Horn.clause list ->
  result
(** The incremental SCC-sliced schedule, run to completion
    in-process. *)

val solve :
  ?config:Config.t ->
  ?qualifiers:Qualifier.t list ->
  kvars:Horn.kvar list ->
  Horn.cstr ->
  result
(** Solve a nested constraint (flattens first) with the incremental
    schedule. *)

(** {2 Slice-level API}

    The incremental schedule, exposed one SCC slice at a time so the
    engine can pool independent slices across functions and cache
    per-slice results. Protocol: {!prepare}; then for each slice in an
    order consistent with {!slice_level} (dependencies first), either
    {!run_slice} (pure w.r.t. the prep — safe to run on a worker
    domain) or rebuild a {!slice_result} from a cache hit, and
    {!apply_slice} it from the coordinating domain; finally
    {!finish}. *)

type prep

type slice_result = {
  sr_slice : int;
  sr_sols : (string * Term.t list) list;
      (** final conjuncts for the slice's own κs *)
  sr_failures : (int * failure) list;
      (** failing concrete heads with their original clause index *)
}

val prepare :
  ?config:Config.t ->
  ?qualifiers:Qualifier.t list ->
  kvars:Horn.kvar list ->
  Horn.clause list ->
  prep
(** Initialize the solution and build the κ-dependency graph. The prep
    carries [config] to every {!run_slice} on it. Raises
    {!Unbound_kvar} on undeclared head κs. *)

val slice_count : prep -> int
val slice_level : prep -> int -> int

val slice_size : prep -> int -> int
(** Rough work estimate (conjuncts to weaken + concrete heads to
    check) for pool scheduling. *)

val slice_fingerprint : prep -> int -> string
(** Deterministic rendering of everything the slice's result depends on
    besides the qualifier set: κ declarations, clauses (tags excluded)
    and the final solutions of external κs. Only valid once every
    predecessor slice has been applied. Cache-key material. *)

val run_slice : prep -> int -> slice_result
(** Solve one slice (weaken own κ clauses to their local fixpoint with
    shrink-driven skipping, then final-check its concrete heads). Every
    predecessor slice must have been applied first. *)

val apply_slice : prep -> slice_result -> unit
(** Merge a slice result into the authoritative solution (coordinator
    only). *)

val finish : prep -> result
(** Assemble the verdict; failures are sorted back into input-clause
    order, matching the reference schedule exactly. *)

val clause_query :
  ?config:Config.t -> kvars:Horn.kvar list -> solution -> Horn.clause -> Term.t
(** The exact implication {!check_clause} decides for this clause under
    this solution — hypotheses with the solution substituted in, sliced
    to the head's cone of influence. Exposed so certifying callers
    ([--certify]) can hand the very same term to [Solver.certify] and
    later replay the stored proof against it. Raises {!Unbound_kvar} on
    an undeclared head κ. *)

val check_clause :
  ?config:Config.t -> kvars:Horn.kvar list -> solution -> Horn.clause -> bool
(** Evaluate one clause under a (final) solution without altering it:
    substitute the solution into hypotheses and head, slice, and report
    whether the implication is valid. Lets lint passes test side
    conditions against the solution the checker already computed.
    Raises {!Unbound_kvar} on an undeclared head κ. *)

val validate_solution :
  kvars:Horn.kvar list -> solution -> Horn.clause list -> Horn.clause list
(** Re-check every clause under a claimed solution and return the ones
    that fail. For any solution returned inside [Sat] this must be
    empty — the invariant the fuzzer's fixpoint self-check oracle
    enforces. *)

val pp_solution : Format.formatter -> solution -> unit

(** {2 Building blocks of the reference sweep} *)

type kenv = (string, Horn.kvar) Hashtbl.t
(** κ name → declaration. *)

val init_system :
  qualifiers:Qualifier.t list ->
  kvars:Horn.kvar list ->
  Horn.clause list ->
  kenv * solution
(** The declarations and the initial solution: every κ at its full
    qualifier instantiation. Raises {!Unbound_kvar} on undeclared head
    κs. *)

val sliced_hyps : Config.t -> kenv -> solution -> Horn.clause -> Term.t -> Term.t
(** [sliced_hyps config kenv sol cl] substitutes [sol] into [cl]'s
    hypotheses and flattens them once; applied to a goal, it returns
    the hypothesis the schedule decides that goal under (sliced to the
    goal's cone of influence when [config.slice] is on). *)

val final_check :
  Config.t -> kenv -> solution -> Horn.clause -> failure option
(** Check a concrete-head clause under the final solution, counting it
    in [fixpoint.final_checks]; κ-headed clauses give [None]. *)
