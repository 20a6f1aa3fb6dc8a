(** Pre-solver discharge of trivially-valid clauses.

    Every validity query from the weakening loop has the shape
    [lhs ⇒ rhs] where one [lhs] (the clause's instantiated hypotheses)
    is probed against many candidate [rhs] goals. [try_valid] builds
    the {!Env} difference-bound environment of the [lhs] and answers
    goals it can prove with zero SMT; everything else falls through to
    the solver untouched. {!try_valid_under} lets a caller that probes
    one [lhs] many times build its environment once and keep it.

    Counters (all flowing into [bench table1] profiles and daemon
    metrics):
    - [absint.discharged] — queries answered without the solver
    - [absint.fallthrough] — queries the environment could not decide
    - [absint.crosscheck_fail] — crosscheck disagreements (always 0
      unless the environment is unsound; asserted by CI)

    [--absint-crosscheck] re-solves every discharged clause and takes
    the {e solver's} verdict, so even a hypothetical environment bug
    cannot change a verdict in that mode — the trust story mirrors
    certificate replay: the fast path is checked by the slow path it
    replaces. *)

open Flux_smt

(* Does nothing: environments are not memoized here (the fixpoint's
   memo rows keep theirs). [perfbench/layers.ml] still calls it. *)
let reset () = ()

let env_of_lhs (lhs : Term.t) : Env.t = Env.of_hyps [ lhs ]

let count ok =
  Profile.incr (if ok then "absint.discharged" else "absint.fallthrough");
  ok

(** [try_valid config f]: [true] means [f] is definitely valid (and was
    counted as discharged); [false] means "ask the solver" — always so
    when [config.absint] is off. *)
let try_valid (config : Config.t) (f : Term.t) : bool =
  config.absint
  && count
       (match f with
       | Term.Imp (lhs, rhs) -> Env.entails (env_of_lhs lhs) rhs
       | g -> Env.entails Env.top g)

(** [try_valid_under config env lhs rhs] is
    [try_valid config (Term.mk_imp lhs rhs)] for a caller holding
    [env = lazy (env_of_lhs lhs)]: the weakening loop probes one
    hypothesis against many goals, and a wide hypothesis costs a walk
    over all its conjuncts to build an environment from. An implication
    [mk_imp] folds is judged as {!try_valid} judges the folded term. *)
let try_valid_under (config : Config.t) (env : Env.t Lazy.t) (lhs : Term.t)
    (rhs : Term.t) : bool =
  match (lhs, rhs) with
  | Term.Bool _, _ | _, Term.Bool _ -> try_valid config (Term.mk_imp lhs rhs)
  | _ -> config.absint && count (Env.entails (Lazy.force env) rhs)

(** Drop-in replacement for {!Flux_smt.Solver.valid}: abstract
    environment first, solver on fallthrough. Under
    [config.absint_crosscheck] the solver is consulted even for
    discharged clauses and its verdict wins (disagreements are counted,
    never masked). *)
let valid (config : Config.t) (f : Term.t) : bool =
  if try_valid config f then
    if config.absint_crosscheck then begin
      let v = Solver.valid f in
      if not v then Profile.incr "absint.crosscheck_fail";
      v
    end
    else true
  else Solver.valid f
