(** The verification configuration: every setting a verdict may depend
    on besides the program itself.

    One immutable value is built per run — from the command line, from
    a daemon request's options, or by a benchmark or test — and passed
    down explicitly through the engine, the checkers, the fixpoint
    solver and the pre-solver discharge. Nothing reads it from a
    global, so concurrent daemon sessions with different flags cannot
    observe each other's settings. *)

type t = {
  absint : bool;
      (** abstract-interpretation pre-solver discharge ([--absint],
          default on; [--no-absint] disables) *)
  absint_crosscheck : bool;
      (** [--absint-crosscheck]: re-solve every discharged clause,
          solver verdict winning *)
  slice : bool;
      (** cone-of-influence slicing of fixpoint clause hypotheses
          (sound either way) *)
  inst_rounds : int;
      (** quantifier-instantiation rounds per VC in the Prusti-style
          baseline *)
}

let default =
  { absint = true; absint_crosscheck = false; slice = true; inst_rounds = 2 }

(** Deterministic rendering of every field: the cache salt, so a
    verdict obtained under one configuration is never replayed under
    another. *)
let fingerprint (c : t) : string =
  Printf.sprintf "absint=%b;xcheck=%b;slice=%b;rounds=%d" c.absint
    c.absint_crosscheck c.slice c.inst_rounds
