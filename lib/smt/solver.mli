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
      (** [valid]/[sat] calls, including trivially constant ([Bool _])
          goals *)
  mutable theory_checks : int;
      (** theory steps of the search: one per path once no literal is
          forced, on a complete path or before a split *)
  mutable max_atoms : int;  (** largest boolean skeleton seen *)
}

val stats : unit -> stats
(** The calling domain's solver statistics. They are the solver's only
    state and are domain-local, so parallel checks on separate domains
    never interfere; aggregate across domains by merging the per-domain
    profiles (see {!Profile.capture}/{!Profile.absorb}). Every query is
    decided afresh, so the counts of a check do not depend on what the
    domain checked before it. *)

val reset_stats : unit -> unit

val clear_cache : unit -> unit
(** Does nothing: the solver keeps no query cache. [perfbench/layers.ml]
    still calls it. *)

val sat : Term.t -> bool
(** [sat t]: is [t] satisfiable over the integers? [false] is definite;
    [true] may over-approximate. *)

val valid : Term.t -> bool
(** [valid t]: does [t] hold for all integer assignments? [true] is
    definite; [false] may be incompleteness. *)

val valid_by :
  (Term.t array -> Term.t -> (int * bool) list option) -> Term.t -> bool
(** {!valid} with another search, for holding the search to a reference:
    [search atoms conj] returns the assignment of an open complete path
    of the elaborated query [conj], atoms ascending, or [None]. *)

val theory_sat : Term.t array -> int array -> bool
(** The theory step of {!valid}'s search, as {!theory_refute} is
    {!certify}'s, without a certificate and counting nothing. *)

type literals
(** A table of theory literals, each atom converted at most once per
    polarity. Hypotheses built on one table share their literals. *)

val literals : unit -> literals

type hyp
(** A hypothesis [lhs] prepared for many validity queries [lhs ⇒ g]:
    its elaboration (opaque abstraction, Ackermann congruences, [if]
    lifting, division quotients) is computed at most once, on the first
    query that needs it. A division's sign bounds depend on the query's
    unit facts, so the elaboration leaves them out, and each query adds
    the ones {!valid} would: the sign of a dividend under the
    hypothesis's unit facts alone is decided once (a dividing goal adds
    no unit fact), and under a goal that does not divide, each
    hypothesis division's sign is checked with the goal's fact, on the
    hypothesis's facts prepared once for it (see {!Lia.sat_with}).

    A {e flat} query — the hypothesis's elaboration a conjunction of
    literals, with no definitions beside the sign bounds of divisions
    whose sign is settled — is also prepared for DPLL(T), on the first
    query whose goal is one literal, once per goal division and sign
    vector, and kept until {!forget}: its atoms numbered as the search
    numbers them, their polarities, their theory literals (taken from
    [literals]) and those literals split into components. Such a query
    then places its goal's literal and merges it into the components it
    touches, which decides the very components, lists and order the
    search would hand the theory (see {!Lia.sat_with}). A goal whose
    negation the query holds takes the rebuilt skeleton instead.

    A [hyp] holds lazy state and is not thread-safe: build and use it
    on one domain, and let it go with the query memo it serves (the
    fixpoint solver keeps one per memo row, for one κ slice, and one
    [literals] table per memo, shared by its rows). *)

val hyp : ?literals:literals -> Term.t -> hyp
(** [literals] defaults to a fresh table. *)

val forget : hyp -> unit
(** Drop the hypothesis's DPLL(T) preparations, its unit facts and the
    sign checks prepared on them, keeping its elaboration and the signs
    decided under its facts alone; the next query that needs them
    prepares them again, with the same result. A memo row outlives the
    queries it serves: the fixpoint solver forgets the preparations of
    the rows one clause evaluation asked once that evaluation ends,
    since later evaluations almost never ask them again. *)

val valid_under : hyp -> Term.t -> bool
(** [valid_under (hyp lhs) g] is [valid (Term.mk_imp lhs g)]: the same
    answer and the same [queries], [theory_checks] and [max_atoms]
    counts, and the same Fourier–Motzkin work in its theory checks. The
    query uses the context only when exactness is certain; otherwise it
    is decided from scratch as {!valid} decides it:
    - an implication {!Term.mk_imp} folds ([lhs] or [g] a [Bool]) is
      passed to {!valid} as folded;
    - a hypothesis that is ill-sorted, or that divides and also creates
      another kind of fresh variable (an opaque term, an application,
      an [if]), gets no context;
    - a goal whose elaboration, on its own, creates a fresh variable
      other than a division's quotient (a nonlinear product, an
      uninterpreted application, an [if]), or that divides beside a
      hypothesis that creates one, does not reuse the context, since
      it could share those with the hypothesis; nor does a goal that
      is not one literal, or a hypothesis that is not flat, when the
      query divides. A goal that divides by a constant reuses the
      hypothesis's elaboration made after its divisions (once per list
      of them): the hypothesis takes the goal's quotient of a division
      they share, and numbers its own after the goal's, as {!valid}'s
      single elaboration state does.

    Each query not folded bumps the profile counter [solver.hyp_reused]
    when the prepared query answers it, and [solver.hyp_rebuilt] when it
    is decided from a rebuilt skeleton or as {!valid} decides it, with
    one counter per reason beside it:
    - [solver.rebuilt.no_context]: the hypothesis has no context;
    - [solver.rebuilt.not_flat]: the hypothesis is not a conjunction of
      literals (or has definitions);
    - [solver.rebuilt.goal_not_literal]: the goal is not one literal;
    - [solver.rebuilt.goal_defs]: the goal is ill-sorted or creates a
      fresh variable the context cannot take, as above;
    - [solver.rebuilt.sign_split]: a division's sign is unsettled, so
      its bounds are a case split;
    - [solver.rebuilt.negation_held]: the query holds the goal's
      negation.

    Every div/mod sign check, in {!valid} too, also adds its
    Fourier–Motzkin work to [solver.divmod_fm_rows] and
    [solver.divmod_fm_row_copies]: the context decides some of them
    once for many queries, so only [lia.fm_rows] less this share is
    the same as {!valid}'s. *)

val sliced_implication : Term.t list -> Term.t -> Term.t
(** [hyps ⇒ goal] with [hyps] sliced to the cone of influence of [goal]
    (hypotheses transitively sharing a variable with it). Sound:
    dropping hypotheses only weakens the left-hand side. *)

val certify : Term.t -> Proof.t option
(** [certify goal]: re-derive [valid goal] as a replayable certificate
    (see {!Proof} and the independent checker in [lib/cert]). [None]
    means the certifying search could not close the goal — including
    when it is simply not valid; a returned certificate always replays
    against [goal] itself. Independent of {!valid}. *)

val certify_by :
  (Term.t array -> Term.t -> Proof.tree option) -> Term.t -> Proof.t option
(** {!certify} with another refutation search, for holding the search
    to a reference: [search atoms conj] refutes [conj], the conjunction
    of the certificate's skeleton and defs, over the atom table [atoms].
    The certificate is returned unchecked. *)

val theory_refute : Term.t array -> int array -> Proof.trefut option
(** The theory step of {!certify}'s search: [theory_refute atoms assign]
    refutes the theory literals of the atoms that [assign] gives a value
    ([1] true, [2] false, [0] unassigned), or is [None]. Bumps the
    profile counter [cert.theory_checks], and [cert.farkas_gap] when the
    literals are infeasible but Farkas cannot certify them. *)

val model : Term.t -> (string * Eval.value) list option
(** A satisfying assignment for [t] over its free variables.
    Verified by ground evaluation before being returned, so
    [Some env] is definite; [None] means no model was found (which
    does not prove unsatisfiability). *)

val counterexample : Term.t -> (string * Eval.value) list option
(** A verified falsifying assignment for [t] — a model of [¬t]. The
    executable witness behind an [invalid] verdict. *)

val counterexample_by :
  (Term.t array -> Term.t -> (int * bool) list option) ->
  Term.t -> (string * Eval.value) list option
(** {!counterexample} with another search, as for {!valid_by}. *)
