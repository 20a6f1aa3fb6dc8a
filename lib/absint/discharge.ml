(** Pre-solver discharge of trivially-valid clauses.

    Every validity query from the weakening loop has the shape
    [lhs ⇒ rhs] where one [lhs] (the clause's instantiated hypotheses)
    is probed against many candidate [rhs] goals. [try_valid] builds
    the {!Env} difference-bound environment of the [lhs] once
    (memoized per domain on the hash-consed term) and answers goals it
    can prove with zero SMT; everything else falls through to the
    solver untouched.

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

(* lhs → environment memo, domain-local like the solver's own caches:
   worker domains in the engine pool each build their own (terms are
   hash-consed per domain, and the weaken loop reuses one lhs across
   hundreds of candidate goals within a single function check). *)
let memo_dls : Env.t Term.Tbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Term.Tbl.create 256)

let reset () = Term.Tbl.reset (Domain.DLS.get memo_dls)

let env_of_lhs (lhs : Term.t) : Env.t =
  let tbl = Domain.DLS.get memo_dls in
  match Term.Tbl.find_opt tbl lhs with
  | Some e -> e
  | None ->
      let e = Env.of_hyps [ lhs ] in
      Term.Tbl.add tbl lhs e;
      e

(** [try_valid config f]: [true] means [f] is definitely valid (and was
    counted as discharged); [false] means "ask the solver" — always so
    when [config.absint] is off. *)
let try_valid (config : Config.t) (f : Term.t) : bool =
  if not config.absint then false
  else
    let ok =
      match f with
      | Term.Imp (lhs, rhs) -> Env.entails (env_of_lhs lhs) rhs
      | g -> Env.entails Env.top g
    in
    if ok then Profile.incr "absint.discharged"
    else Profile.incr "absint.fallthrough";
    ok

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
