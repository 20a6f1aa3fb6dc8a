(** The fuzzing campaign driver behind [flux fuzz].

    A campaign is a pure function of (seed, budget, oracle selection):
    the time budget is mapped to fixed per-oracle case counts through
    conservative throughput rates, every case derives its randomness
    from [Rng.split seed case_index], and cases are scheduled through
    {!Flux_engine.Engine.run_pool} with {e equal} size estimates so the
    pool's LPT tie-break preserves input order. Two runs with the same
    arguments therefore examine the identical case list and report
    identical verdicts, regardless of [--jobs] or machine speed — only
    the wall-clock line differs. (A hard safety stop at many multiples
    of the budget exists for pathological solver blowups; if it ever
    fires the report says so loudly, because truncation breaks the
    determinism guarantee.)

    Shrunk reproducers are written to the corpus directory as
    [<oracle>-seed<seed>-case<index>.<ext>]; [test/test_fuzz.ml]
    replays everything checked in there as regression tests. *)

module Engine = Flux_engine.Engine
module Ast = Flux_syntax.Ast
open Flux_smt
open Flux_fixpoint

type oracle_kind = Soundness | Solver | Cert | Fixpoint | Incremental | Absint

let all_oracles = [ Soundness; Solver; Cert; Fixpoint; Incremental; Absint ]

let oracle_name = function
  | Soundness -> "soundness"
  | Solver -> "solver"
  | Cert -> "cert"
  | Fixpoint -> "fixpoint"
  | Incremental -> "incremental"
  | Absint -> "absint"

let oracle_of_string = function
  | "soundness" -> Some [ Soundness ]
  | "solver" -> Some [ Solver ]
  | "cert" -> Some [ Cert ]
  | "fixpoint" -> Some [ Fixpoint ]
  | "incremental" -> Some [ Incremental ]
  | "absint" -> Some [ Absint ]
  | "all" -> Some all_oracles
  | _ -> None

(** Conservative sustained throughput (cases/second) used to translate
    [--budget SECS] into a deterministic case count. Understating the
    real rate only makes the campaign finish early; it never makes two
    runs diverge. *)
let rate = function
  | Soundness -> 3.0
  | Solver -> 2000.0
  | Cert -> 500.0
  | Fixpoint -> 300.0
  | Incremental -> 150.0
  | Absint -> 100.0

let cases_for ~(budget : float) (k : oracle_kind) : int =
  max 1 (int_of_float (budget *. rate k))

type config = {
  seed : int;
  budget : float;  (** seconds; mapped to counts via {!rate} *)
  oracles : oracle_kind list;
  jobs : int;
  corpus_dir : string option;  (** where to write shrunk reproducers *)
}

let default_config =
  {
    seed = 0;
    budget = 10.0;
    oracles = all_oracles;
    jobs = 0;
    corpus_dir = Some "fuzz-corpus";
  }

type oracle_summary = {
  o_name : string;
  o_cases : int;
  o_ok : int;
  o_skipped : int;
  o_frontend : int;  (** generated programs the frontend rejected *)
  o_bugs : Oracle.bug list;
}

type summary = {
  s_seed : int;
  s_oracles : oracle_summary list;
  s_elapsed : float;  (** wall clock; informational, not fingerprinted *)
  s_truncated : bool;  (** the pathological safety stop fired *)
}

let summary_bugs (s : summary) : Oracle.bug list =
  List.concat_map (fun o -> o.o_bugs) s.s_oracles

(** Everything determinism promises to reproduce: case counts and
    verdicts per oracle, bug descriptions and reproducers — but not
    wall-clock. Two runs with identical arguments must produce equal
    fingerprints (pinned by [test/test_fuzz.ml]). *)
let fingerprint (s : summary) : string =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "seed=%d truncated=%b\n" s.s_seed s.s_truncated;
  List.iter
    (fun o ->
      Printf.bprintf buf "%s cases=%d ok=%d skip=%d frontend=%d bugs=%d\n"
        o.o_name o.o_cases o.o_ok o.o_skipped o.o_frontend
        (List.length o.o_bugs);
      List.iter
        (fun (b : Oracle.bug) ->
          Printf.bprintf buf "bug case=%d %s\n%s\n" b.Oracle.b_case
            b.Oracle.b_descr b.Oracle.b_repro)
        o.o_bugs)
    s.s_oracles;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

(** Run a campaign. The optional [check]/[valid]/[sat]/[solve]/
    [incremental] arguments substitute broken implementations for the
    bug-seeding meta-tests; production callers omit them. *)
let run ?(check : (Ast.program -> bool) option)
    ?(valid : (Term.t -> bool) option) ?(sat : (Term.t -> bool) option)
    ?(counterexample :
        (Term.t -> (string * Eval.value) list option) option)
    ?(certify : (Term.t -> Proof.t option) option)
    ?(solve : (kvars:Horn.kvar list -> Horn.clause list -> Solve.result) option)
    ?(incremental :
        (kvars:Horn.kvar list -> Horn.clause list -> Solve.result) option)
    (cfg : config) : summary =
  let t0 = Unix.gettimeofday () in
  (* never advanced, only split: safe to share across worker domains *)
  let root = Rng.make cfg.seed in
  let hard_stop = (cfg.budget *. 25.0) +. 120.0 in
  let truncated = ref false in
  let base = ref 0 in
  let run_oracle (kind : oracle_kind) : oracle_summary =
    let count = cases_for ~budget:cfg.budget kind in
    let base_index = !base in
    base := !base + count;
    let one (case : int) () : Oracle.verdict =
      if Unix.gettimeofday () -. t0 > hard_stop then begin
        truncated := true;
        Oracle.Skip
      end
      else
        let rng = Rng.split root case in
        match kind with
        | Soundness -> Oracle.soundness_case ?check ~seed:cfg.seed ~case rng
        | Solver ->
            Oracle.solver_case ?valid ?sat ?counterexample ~seed:cfg.seed
              ~case rng
        | Cert -> Oracle.cert_case ?valid ?certify ~seed:cfg.seed ~case rng
        | Fixpoint -> Oracle.fixpoint_case ?solve ~seed:cfg.seed ~case rng
        | Incremental ->
            Oracle.incremental_case ?incremental ~seed:cfg.seed ~case rng
        | Absint -> Oracle.absint_case ~seed:cfg.seed ~case rng
    in
    let fns = Array.init count (fun i -> one (base_index + i)) in
    let verdicts =
      Engine.run_pool ~jobs:cfg.jobs ~sizes:(Array.make count 1) fns
    in
    let ok = ref 0 and skipped = ref 0 and frontend = ref 0 and bugs = ref [] in
    Array.iter
      (function
        | Oracle.Ok -> incr ok
        | Oracle.Skip -> incr skipped
        | Oracle.Frontend -> incr frontend
        | Oracle.Bug b -> bugs := b :: !bugs)
      verdicts;
    {
      o_name = oracle_name kind;
      o_cases = count;
      o_ok = !ok;
      o_skipped = !skipped;
      o_frontend = !frontend;
      o_bugs = List.rev !bugs;
    }
  in
  let oracles = List.map run_oracle cfg.oracles in
  {
    s_seed = cfg.seed;
    s_oracles = oracles;
    s_elapsed = Unix.gettimeofday () -. t0;
    s_truncated = !truncated;
  }

(* ------------------------------------------------------------------ *)
(* Corpus                                                              *)
(* ------------------------------------------------------------------ *)

let bug_filename (b : Oracle.bug) : string =
  Printf.sprintf "%s-seed%d-case%d.%s" b.Oracle.b_oracle b.Oracle.b_seed
    b.Oracle.b_case b.Oracle.b_ext

(** Write each bug's shrunk reproducer into [dir] (created if needed);
    returns the paths written. *)
let write_corpus (dir : string) (bugs : Oracle.bug list) : string list =
  if bugs <> [] && not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  List.map
    (fun (b : Oracle.bug) ->
      let path = Filename.concat dir (bug_filename b) in
      let oc = open_out path in
      output_string oc b.Oracle.b_repro;
      close_out oc;
      path)
    bugs

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let pp_summary fmt (s : summary) =
  List.iter
    (fun o ->
      Format.fprintf fmt "  %-9s %5d cases: %d ok, %d skipped%s, %d bug%s@."
        o.o_name o.o_cases o.o_ok o.o_skipped
        (if o.o_frontend > 0 then
           Printf.sprintf ", %d frontend-rejected" o.o_frontend
         else "")
        (List.length o.o_bugs)
        (if List.length o.o_bugs = 1 then "" else "s"))
    s.s_oracles;
  let bugs = summary_bugs s in
  List.iter
    (fun (b : Oracle.bug) ->
      Format.fprintf fmt "@.BUG [%s] seed=%d case=%d@.  %s@.  reproduce: flux fuzz --seed %d --oracle %s@."
        b.Oracle.b_oracle b.Oracle.b_seed b.Oracle.b_case b.Oracle.b_descr
        b.Oracle.b_seed b.Oracle.b_oracle)
    bugs;
  if s.s_truncated then
    Format.fprintf fmt
      "@.WARNING: hard time stop fired — case counts are NOT deterministic \
       for this run@.";
  Format.fprintf fmt "  total     %5d cases, %d bugs (%.1fs)@."
    (List.fold_left (fun a o -> a + o.o_cases) 0 s.s_oracles)
    (List.length bugs) s.s_elapsed
