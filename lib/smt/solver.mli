(** Validity and satisfiability checking for the quantifier-free
    refinement logic.

    The checker is {e sound for validity}: [valid t = true] implies [t]
    holds over the integers. It may be incomplete (a valid [t] can be
    reported invalid) when rational Fourier–Motzkin reasoning or opaque
    abstraction of nonlinear terms loses information — the safe polarity
    for a program verifier.

    Division and modulo by positive constants are linearized exactly
    with {e truncated} (Rust/OCaml) semantics — the quotient rounds
    toward zero and the remainder takes the sign of the dividend, e.g.
    [(-7)/2 = -3] and [(-7) mod 2 = -1] — matching [Interp]'s use of
    OCaml's [/] and [mod]. Products of two non-constants are abstracted
    as opaque variables; uninterpreted applications are Ackermannized;
    atoms over reals (floats) are abstracted as opaque boolean atoms. *)

type stats = {
  mutable queries : int;
      (** [valid]/[sat] calls, including cache hits and trivially
          constant ([Bool _]) goals *)
  mutable cache_hits : int;
  mutable theory_checks : int;  (** DPLL leaf/branch theory consultations *)
  mutable max_atoms : int;  (** largest boolean skeleton seen *)
  mutable time : float;  (** seconds spent solving (cache misses only) *)
}

val stats : unit -> stats
(** The calling domain's solver statistics. All solver state (stats
    and query caches) is domain-local, so parallel checks on separate
    domains never interfere; aggregate across domains by merging the
    per-domain profiles (see {!Profile.capture}/{!Profile.absorb}). *)

val reset_stats : unit -> unit

val clear_cache : unit -> unit
(** Reset the calling domain's query cache (useful for unbiased timing
    runs). *)

val sat : Term.t -> bool
(** [sat t]: is [t] satisfiable over the integers? [false] is definite;
    [true] may over-approximate. *)

val valid : Term.t -> bool
(** [valid t]: does [t] hold for all integer assignments? [true] is
    definite; [false] may be incompleteness. *)

type hyp
(** A hypothesis [lhs] prepared for many validity queries [lhs ⇒ g]:
    its {!Term.hash} and its elaboration (opaque abstraction,
    Ackermann congruences, [if] lifting) are each computed at most
    once, on the first query that needs them.

    A [hyp] holds lazy state and is not thread-safe: build and use it
    on one domain, and let it go with the query memo it serves (the
    fixpoint solver keeps one per memo row, for one κ slice). *)

val hyp : Term.t -> hyp

val valid_under : hyp -> Term.t -> bool
(** [valid_under (hyp lhs) g] is [valid (Term.mk_imp lhs g)]: the same
    answer, the same [queries] and [cache_hits] counts, the same cache
    entry. Only a cache miss uses the context, and only when exactness
    is certain; otherwise the query is decided from scratch as {!valid}
    decides it:
    - an implication {!Term.mk_imp} folds ([lhs] or [g] a [Bool]) is
      passed to {!valid} as folded;
    - a hypothesis whose elaboration meets a division or remainder by
      a constant (whose encoding consults the unit facts of the whole
      query), or is ill-sorted, gets no context;
    - a goal whose elaboration, on its own, creates a fresh variable,
      opaque term, application or definition (a division, a nonlinear
      product, an uninterpreted application, an [if]) does not reuse
      the context, since it could share those with the hypothesis. *)

val sliced_implication : Term.t list -> Term.t -> Term.t
(** [hyps ⇒ goal] with [hyps] sliced to the cone of influence of [goal]
    (hypotheses transitively sharing a variable with it). Sound:
    dropping hypotheses only weakens the left-hand side. *)

val certify : Term.t -> Proof.t option
(** [certify goal]: re-derive [valid goal] as a replayable certificate
    (see {!Proof} and the independent checker in [lib/cert]). [None]
    means the certifying search could not close the goal — including
    when it is simply not valid; a returned certificate always replays
    against [goal] itself. Independent of {!valid}: no cache is
    consulted. *)

val model : Term.t -> (string * Eval.value) list option
(** A satisfying assignment for [t] over its free variables.
    Verified by ground evaluation before being returned, so
    [Some env] is definite; [None] means no model was found (which
    does not prove unsatisfiability). *)

val counterexample : Term.t -> (string * Eval.value) list option
(** A verified falsifying assignment for [t] — a model of [¬t]. The
    executable witness behind an [invalid] verdict. *)
