(** The liquid fixpoint solver: predicate abstraction by iterative
    weakening (Rondon et al. 2008; Cosman & Jhala 2017).

    Each κ variable starts at the conjunction of all sort-correct
    qualifier instantiations; clauses with κ heads repeatedly knock out
    conjuncts that are not implied by their hypotheses until a fixpoint
    is reached. The result is the strongest solution expressible in the
    qualifier lattice; the remaining concrete-head clauses are then
    checked once under it.

    One schedule drives the weakening: the incremental one
    ({!solve_clauses_incremental}) decomposes the system along the
    κ-dependency graph ({!Kgraph}): SCCs are solved in topological
    order, a clause is re-weakened only when the solution of a κ in its
    hypotheses shrank since its last evaluation, and concrete-head
    clauses are final-checked as soon as their last κ hypothesis is
    final. The weakening operator is monotone on the finite lattice of
    conjunct subsets, so it converges to the same (strongest) fixpoint
    as the plain sweep of every κ-headed clause until nothing changes —
    verdicts, solutions and failure order are identical. That sweep is
    the reference the differential tests and the fuzzer's [incremental]
    oracle compare against; it lives with them ([Flux_fuzz.Reference])
    and shares only {!init_system}, {!sliced_hyps} and {!final_check}
    with this module.

    The slice API ({!prepare} / {!run_slice} / {!apply_slice} /
    {!finish}) exposes the incremental schedule one SCC at a time so the
    engine can pool slices of equal dependency level across functions
    and cache per-slice results ({!slice_fingerprint}). *)

open Flux_smt
module Discharge = Flux_absint.Discharge
module Env = Flux_absint.Env

type solution = (string, Term.t list) Hashtbl.t
(** κ name → conjuncts over the κ's formal parameters *)

type failure = {
  f_tag : int;  (** caller-side tag of the failing head *)
  f_clause : Horn.clause;
  f_lhs : Term.t;  (** hypotheses after solution substitution *)
  f_rhs : Term.t;
}

type result = Sat of solution | Unsat of failure list * solution

type kenv = (string, Horn.kvar) Hashtbl.t

exception Unbound_kvar of string
(** Raised when a clause's {e head} applies a κ that was never declared:
    defaulting such a head to ⊤ would make the clause vacuously valid
    and silently mask a missing kvar declaration. Hypothesis-position
    misses keep the ⊤ default — that only weakens the left-hand side,
    which is sound. *)

type stats = {
  mutable iterations : int;
  mutable weaken_checks : int;
  mutable final_checks : int;
  mutable scc_count : int;
  mutable reweaken_skipped : int;
      (** clause evaluations skipped because no κ hypothesis shrank *)
}

(* Domain-local, like the solver's stats: each domain running parallel
   per-function checks accumulates its own counters. *)
let stats_dls : stats Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        iterations = 0;
        weaken_checks = 0;
        final_checks = 0;
        scc_count = 0;
        reweaken_skipped = 0;
      })

let stats () = Domain.DLS.get stats_dls

let reset_stats () =
  let stats = stats () in
  stats.iterations <- 0;
  stats.weaken_checks <- 0;
  stats.final_checks <- 0;
  stats.scc_count <- 0;
  stats.reweaken_skipped <- 0

let subst_kapp (kv : Horn.kvar) (conjuncts : Term.t list) k
    (args : Term.t list) : Term.t =
  let m =
    try List.map2 (fun (x, _) a -> (x, a)) kv.Horn.kparams args
    with Invalid_argument _ ->
      invalid_arg
        (Printf.sprintf "kvar %s applied to %d args, expects %d" k
           (List.length args)
           (List.length kv.Horn.kparams))
  in
  Term.mk_and (List.map (Term.subst m) conjuncts)

(** Substitute the current solution into a hypothesis predicate. An
    unknown κ becomes ⊤ — dropping a hypothesis only weakens the
    left-hand side, which is sound. *)
let apply_hyp (kenv : kenv) (sol : solution) (p : Horn.pred) : Term.t =
  match p with
  | Horn.Conc t -> t
  | Horn.Kapp (k, args) -> (
      match (Hashtbl.find_opt kenv k, Hashtbl.find_opt sol k) with
      | Some kv, Some conjuncts -> subst_kapp kv conjuncts k args
      | _ -> Term.tt)

(** Substitute the current solution into a head predicate. Unknown κs
    raise {!Unbound_kvar}: a ⊤ head would make the clause vacuously
    valid and mask a missing declaration. *)
let apply_head (kenv : kenv) (sol : solution) (p : Horn.pred) : Term.t =
  match p with
  | Horn.Conc t -> t
  | Horn.Kapp (k, args) -> (
      match (Hashtbl.find_opt kenv k, Hashtbl.find_opt sol k) with
      | Some kv, Some conjuncts -> subst_kapp kv conjuncts k args
      | _ -> raise (Unbound_kvar k))

(** Reject clauses whose head applies an undeclared κ, before solving
    begins — through {!init_system}, so the schedule and the reference
    sweep fail identically. *)
let check_heads (kenv : kenv) (clauses : Horn.clause list) : unit =
  List.iter
    (fun cl ->
      match cl.Horn.head with
      | Horn.Kapp (k, _) when not (Hashtbl.mem kenv k) ->
          raise (Unbound_kvar k)
      | _ -> ())
    clauses

(** Pre-expand and flatten a clause's hypotheses under the current
    solution, numbered for slicing ({!Term.cone}); shared by all the
    per-goal slices of one clause evaluation. *)
let prepare_hyps kenv sol (c : Horn.clause) : Term.cone =
  List.map (apply_hyp kenv sol) c.Horn.hyps
  |> List.concat_map (function Term.And ts -> ts | t -> [ t ])
  |> Term.cone

(** Cone-of-influence slicing of prepared hypotheses w.r.t. [rhs]: the
    indices of the hypotheses {!Term.cone_slice} keeps, those
    transitively sharing a variable with the goal. Dropping hypotheses
    weakens the left-hand side, so slicing is sound (it can only make
    the validity check fail, never succeed spuriously). [None] keeps
    them all: for variable-free goals (e.g. [false] for unreachable
    code), which depend on the whole path condition, and when
    [config.slice] is off. *)
let slice_of (config : Config.t) (hyps : Term.cone) (rhs : Term.t) :
    int list option =
  if not config.slice then None
  else
    let seed = Term.free_vars rhs in
    if Term.VarSet.is_empty seed then None
    else Some (Term.cone_slice hyps seed)

let slice_terms (hyps : Term.cone) : int list option -> Term.t list = function
  | None -> Array.to_list hyps.Term.c_hyps
  | Some ks -> Term.cone_terms hyps ks

let slice_prepared config hyps rhs : Term.t =
  Term.mk_and (slice_terms hyps (slice_of config hyps rhs))

(** A clause's hypotheses under [sol], prepared once: the result cuts
    the sliced hypothesis for each goal it is given. *)
let sliced_hyps config kenv sol (c : Horn.clause) : Term.t -> Term.t =
  slice_prepared config (prepare_hyps kenv sol c)

(** Build the initial environment and solution (every κ at its full
    qualifier instantiation) for a clause system. *)
let init_system ~qualifiers ~(kvars : Horn.kvar list)
    (clauses : Horn.clause list) : kenv * solution =
  let kenv = Hashtbl.create 16 in
  List.iter (fun kv -> Hashtbl.replace kenv kv.Horn.kname kv) kvars;
  check_heads kenv clauses;
  let sol : solution = Hashtbl.create 16 in
  List.iter
    (fun kv ->
      Hashtbl.replace sol kv.Horn.kname
        (Qualifier.instantiate_all ~values:kv.Horn.kvalues qualifiers
           kv.Horn.kparams))
    kvars;
  (kenv, sol)

(** Slice-global memo of decided implications [lhs ⇒ rhs], one {e row}
    per hypothesis keyed by goal. Hypotheses are wide (~100 conjuncts
    on Table 1) and, above {!Term.max_interned_size}, stay raw: hashing
    one walks every conjunct, so a table keyed by whole implications
    would re-walk the hypothesis on every lookup. Goals are qualifier-sized
    and interned, so a row lookup is O(1); the rows themselves are
    keyed by the hypothesis's hash, which a clause evaluation folds
    from its conjuncts' hashes ({!Term.mk_and_hashed}). A row also
    carries the hypothesis's solver context and its abstract
    environment, each built at most once while the memo lives (one run
    of a κ-SCC slice), not once per goal. *)
type row = {
  r_goals : bool Term.Tbl.t;  (** goal → verdict *)
  r_hyp : Solver.hyp;
  mutable r_env : Env.t option;  (** set by the first bucket that needs it *)
}

(** Tables keyed by a term and its {!Term.hash}, computed by the
    caller: neither a lookup nor an insertion hashes the term. *)
module Hashed = Hashtbl.Make (struct
  type t = int * Term.t

  let equal (h, a) (h', b) = h = h' && Term.equal a b
  let hash (h, _) = h
end)

type qmemo = {
  rows : row Hashed.t;  (** keyed by hypothesis *)
  literals : Solver.literals;
      (** the theory literals of the rows' hypotheses: rows share many
          conjuncts, and each is converted once *)
  collapsed : bool Term.Tbl.t;
      (** implications {!Term.mk_imp} folds away ([L ⇒ true],
          [true ⇒ q], [L ⇒ false], [false ⇒ q]), keyed by the folded
          term: they stay shared across hypotheses *)
}

(** The goals of one evaluation that share a sliced hypothesis. *)
type bucket = {
  b_lhs : Term.t;
  b_row : row;
  b_env : Env.t Lazy.t;
      (** the row's environment, built from the evaluation's
          {!Env.slices} if the row has none yet *)
  mutable b_goals : (Term.t * Term.t) list;
      (** undecided (conjunct, goal) pairs, latest first *)
}

(** One weakening step for a κ-headed clause against [sol]: knock out
    the head κ's conjuncts not implied by the hypotheses, and return
    whether the κ's solution shrank. It keeps exactly the conjuncts a
    plain goal-by-goal check keeps, so the fixpoint (and hence the
    verdict) is the reference sweep's. Each goal is triaged against
    the slice's {!qmemo}: an implication already decided — by this
    clause on an earlier pass, or by a sibling clause with the same
    hypothesis and goal (pre/post join-κ pairs produce many) — reuses
    its verdict. The rest are grouped into
    buckets by sliced hypothesis. The evaluation pays for its
    hypotheses once, for all its buckets: each conjunct's variables are
    numbered and its hash taken once, so a slice is cut on ints and its
    memo row found by a folded hash; and each component of the
    hypotheses is closed once for the abstract environments
    ({!Env.slices}), whose goals are settled before any solver call.

    The solver then walks a bucket's remaining goals in order, one
    weaken check per walk, and a walk stops at the first goal that does
    not hold. Walks that confirm a κ's survivors in one go are what the
    batching is for; on Table 1, where most walks knock out first-time
    conjuncts, a walk asks about one goal (~4,800 queries over ~4,500
    walks). A goal an earlier walk decided (two conjuncts substituting
    to the same goal) is settled from the row when the walk reaches
    it. A walk records its verdicts only when it ends, so a twin within
    one walk is asked, and solved, again: the exact counters of
    [perfbench/baseline_counters.json] pin that query count. *)
let weaken_clause config stats kenv (sol : solution) ~(qmemo : qmemo)
    (cl : Horn.clause) : bool =
  match cl.Horn.head with
  | Horn.Conc _ -> false
  | Horn.Kapp (k, args) -> (
      match Hashtbl.find_opt sol k with
      | None -> raise (Unbound_kvar k)
      | Some [] -> false
      | Some conjuncts ->
          let kv = Hashtbl.find kenv k in
          let m = List.map2 (fun (x, _) a -> (x, a)) kv.Horn.kparams args in
          let prepared = prepare_hyps kenv sol cl in
          let hashes = Array.map Term.hash prepared.Term.c_hyps in
          let envs = lazy (Env.slices prepared) in
          (* One slice per goal seed; seeds slicing to equal hypotheses
             share a row, hence a bucket. *)
          let slices = ref [] in
          let bucket_for rhs =
            let seed = Term.free_vars rhs in
            match
              List.find_opt (fun (s, _) -> Term.VarSet.equal s seed) !slices
            with
            | Some (_, b) -> b
            | None ->
                let ks = slice_of config prepared rhs in
                let lhs, h =
                  Term.mk_and_hashed (slice_terms prepared ks)
                    (match ks with
                    | None -> Array.to_list hashes
                    | Some ks -> List.map (Array.get hashes) ks)
                in
                let row =
                  match Hashed.find_opt qmemo.rows (h, lhs) with
                  | Some row -> row
                  | None ->
                      let row =
                        {
                          r_goals = Term.Tbl.create 16;
                          r_hyp = Solver.hyp ~literals:qmemo.literals lhs;
                          r_env = None;
                        }
                      in
                      Hashed.add qmemo.rows (h, lhs) row;
                      row
                in
                let b =
                  match List.find_opt (fun (_, b) -> b.b_row == row) !slices with
                  | Some (_, b) -> b
                  | None ->
                      {
                        b_lhs = lhs;
                        b_row = row;
                        b_env =
                          lazy
                            (match row.r_env with
                            | Some e -> e
                            | None ->
                                let e =
                                  match ks with
                                  | None -> Discharge.env_of_lhs lhs
                                  | Some ks -> Env.slice (Lazy.force envs) ks
                                in
                                row.r_env <- Some e;
                                e);
                        b_goals = [];
                      }
                in
                slices := (seed, b) :: !slices;
                b
          in
          (* a [Bool] side makes {!Term.mk_imp} fold the implication *)
          let slot b rhs =
            match (b.b_lhs, rhs) with
            | Term.Bool _, _ | _, Term.Bool _ ->
                (qmemo.collapsed, Term.mk_imp b.b_lhs rhs)
            | _ -> (b.b_row.r_goals, rhs)
          in
          let find b rhs =
            let tbl, key = slot b rhs in
            Term.Tbl.find_opt tbl key
          in
          let skip () =
            stats.reweaken_skipped <- stats.reweaken_skipped + 1;
            Profile.incr "fixpoint.reweaken_skipped"
          in
          let verdict : (Term.t, bool) Hashtbl.t =
            Hashtbl.create (List.length conjuncts)
          in
          let settle b (q, rhs) v =
            Hashtbl.replace verdict q v;
            let tbl, key = slot b rhs in
            Term.Tbl.replace tbl key v
          in
          (* buckets with undecided goals, in reverse first-seen order *)
          let pending = ref [] in
          List.iter
            (fun q ->
              let rhs = Term.subst m q in
              let b = bucket_for rhs in
              match find b rhs with
              | Some v ->
                  skip ();
                  Hashtbl.replace verdict q v
              | None ->
                  if b.b_goals = [] then pending := b :: !pending;
                  b.b_goals <- (q, rhs) :: b.b_goals)
            conjuncts;
          (* Settle the goals the abstract environment proves outright —
             discharge-true is a subset of solver-true, so this leaves
             the walks' verdicts (and hence the kept set) unchanged.
             Under crosscheck the solver is still consulted and its
             verdict recorded. *)
          let pre_settle b =
            List.filter
              (fun ((_, rhs) as g) ->
                if Discharge.try_valid_under config b.b_env b.b_lhs rhs
                then begin
                  (if config.Config.absint_crosscheck then begin
                     let v = Solver.valid_under b.b_row.r_hyp rhs in
                     if not v then Profile.incr "absint.crosscheck_fail";
                     settle b g v
                   end
                   else settle b g true);
                  false
                end
                else true)
              (List.rev b.b_goals)
          in
          (* [held]: the goals the open weaken check found valid so
             far, recorded when it ends *)
          let rec walk b held = function
            | [] -> List.iter (fun g -> settle b g true) held
            | ((_, rhs) as g) :: rest -> (
                match find b rhs with
                | Some v ->
                    skip ();
                    settle b g v;
                    walk b held rest
                | None ->
                    if held = [] then begin
                      stats.weaken_checks <- stats.weaken_checks + 1;
                      Profile.incr "fixpoint.weaken_checks"
                    end;
                    if Solver.valid_under b.b_row.r_hyp rhs then
                      walk b (g :: held) rest
                    else begin
                      List.iter (fun g -> settle b g true) held;
                      settle b g false;
                      walk b [] rest
                    end)
          in
          List.iter (fun b -> walk b [] (pre_settle b)) (List.rev !pending);
          (* the rows keep their verdicts; their DPLL(T) preparations,
             which later evaluations seldom need, go *)
          List.iter (fun (_, b) -> Solver.forget b.b_row.r_hyp) !slices;
          let keep =
            List.filter (fun q -> Hashtbl.find verdict q) conjuncts
          in
          if List.length keep <> List.length conjuncts then begin
            Hashtbl.replace sol k keep;
            true
          end
          else false)

(** Final-check one concrete-head clause under the (final) solution. *)
let final_check config kenv (sol : solution) (cl : Horn.clause) :
    failure option =
  match cl.Horn.head with
  | Horn.Kapp _ -> None
  | Horn.Conc rhs ->
      let stats = stats () in
      stats.final_checks <- stats.final_checks + 1;
      Profile.incr "fixpoint.final_checks";
      let lhs = sliced_hyps config kenv sol cl rhs in
      if Discharge.valid config (Term.mk_imp lhs rhs) then None
      else Some { f_tag = cl.Horn.tag; f_clause = cl; f_lhs = lhs; f_rhs = rhs }

(* -------------------------------------------------------------------- *)
(* Incremental (SCC-sliced) schedule                                     *)
(* -------------------------------------------------------------------- *)

type prep = {
  p_config : Config.t;
  p_kenv : kenv;
  p_sol : solution;
      (** authoritative solution; extended slice by slice via
          {!apply_slice}. Workers never write it — {!run_slice} copies
          the entries it reads into a slice-local table. *)
  p_graph : Kgraph.t;
  p_failures : (int * failure) list ref;
      (** failing concrete heads with their original clause index *)
}

type slice_result = {
  sr_slice : int;
  sr_sols : (string * Term.t list) list;
      (** final conjuncts for the slice's own κs *)
  sr_failures : (int * failure) list;
}

let prepare ?(config = Config.default) ?(qualifiers = Qualifier.default)
    ~(kvars : Horn.kvar list) (clauses : Horn.clause list) : prep =
  Profile.time "fixpoint.solve_s" @@ fun () ->
  let kenv, sol = init_system ~qualifiers ~kvars clauses in
  let graph = Kgraph.build ~kvars clauses in
  let stats = stats () in
  stats.scc_count <- stats.scc_count + graph.Kgraph.n_sccs;
  Profile.add "fixpoint.scc_count" graph.Kgraph.n_sccs;
  {
    p_config = config;
    p_kenv = kenv;
    p_sol = sol;
    p_graph = graph;
    p_failures = ref [];
  }

let slice_count (p : prep) : int = Array.length p.p_graph.Kgraph.slices
let slice_level (p : prep) (i : int) : int =
  p.p_graph.Kgraph.slices.(i).Kgraph.sl_level

(** Rough work estimate for pool scheduling: conjuncts to weaken plus
    concrete heads to check. *)
let slice_size (p : prep) (i : int) : int =
  let sl = p.p_graph.Kgraph.slices.(i) in
  List.fold_left
    (fun acc k ->
      acc + List.length (try Hashtbl.find p.p_sol k with Not_found -> []))
    (List.length sl.Kgraph.sl_cclauses)
    sl.Kgraph.sl_kvars

(** Deterministic rendering of everything a slice's result depends on
    besides the qualifier set: the slice's κ declarations, its clauses
    (tags excluded — {!Horn.pp_clause} does not print them, so
    renumbering obligations elsewhere in a function cannot spoil the
    key), and the final solutions of the external κs it reads. Used by
    the engine as slice-level cache-key material. *)
let slice_fingerprint (p : prep) (i : int) : string =
  let sl = p.p_graph.Kgraph.slices.(i) in
  let buf = Buffer.create 512 in
  List.iter
    (fun k ->
      let kv = Hashtbl.find p.p_kenv k in
      Buffer.add_string buf
        (Printf.sprintf "k %s/%d" kv.Horn.kname kv.Horn.kvalues);
      List.iter
        (fun (x, s) ->
          Buffer.add_string buf
            (Format.asprintf " (%s:%a)" x Flux_smt.Sort.pp s))
        kv.Horn.kparams;
      Buffer.add_char buf '\n')
    sl.Kgraph.sl_kvars;
  List.iter
    (fun (_, cl) ->
      Buffer.add_string buf (Format.asprintf "c %a\n" Horn.pp_clause cl))
    (sl.Kgraph.sl_kclauses @ sl.Kgraph.sl_cclauses);
  List.iter
    (fun k ->
      let conjuncts = try Hashtbl.find p.p_sol k with Not_found -> [] in
      Buffer.add_string buf
        (Format.asprintf "x %s := %a\n" k Term.pp (Term.mk_and conjuncts)))
    sl.Kgraph.sl_ext_kvars;
  Buffer.contents buf

(** Solve one slice: weaken its κ-headed clauses to their local
    fixpoint, re-evaluating a clause only when a κ in its hypotheses
    shrank since the clause's last evaluation, then final-check the
    slice's concrete heads. Reads (but never writes) [p.p_sol]; every
    predecessor slice must have been applied first. *)
let run_slice (p : prep) (i : int) : slice_result =
  Profile.time "fixpoint.solve_s" @@ fun () ->
  let stats = stats () in
  let sl = p.p_graph.Kgraph.slices.(i) in
  (* Slice-local working solution: own κs (mutated) plus the external
     κs the slice reads (final, never mutated). *)
  let wsol : solution = Hashtbl.create 16 in
  let import k =
    match Hashtbl.find_opt p.p_sol k with
    | Some conjuncts -> Hashtbl.replace wsol k conjuncts
    | None -> ()
  in
  List.iter import sl.Kgraph.sl_kvars;
  List.iter import sl.Kgraph.sl_ext_kvars;
  let kcls = Array.of_list sl.Kgraph.sl_kclauses in
  let n = Array.length kcls in
  (* Shrink counters for the slice's own κs; external κs are final. A
     clause whose hypothesis κs all kept their counter since its last
     evaluation has an unchanged left-hand side, and its surviving
     conjuncts were already validated against it — skip it. *)
  let own = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace own k ()) sl.Kgraph.sl_kvars;
  let version : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let ver k = Option.value (Hashtbl.find_opt version k) ~default:0 in
  let hyp_ks =
    Array.map (fun (_, cl) -> Kgraph.hyp_kvars own cl) kcls
  in
  let last : int list option array = Array.make n None in
  let qmemo =
    {
      rows = Hashed.create 64;
      literals = Solver.literals ();
      collapsed = Term.Tbl.create 16;
    }
  in
  let changed = ref true in
  while !changed do
    changed := false;
    stats.iterations <- stats.iterations + 1;
    Profile.incr "fixpoint.iterations";
    for j = 0 to n - 1 do
      let _, cl = kcls.(j) in
      let cur = List.map ver hyp_ks.(j) in
      match last.(j) with
      | Some seen when seen = cur ->
          stats.reweaken_skipped <- stats.reweaken_skipped + 1;
          Profile.incr "fixpoint.reweaken_skipped"
      | _ ->
          last.(j) <- Some cur;
          if
            weaken_clause p.p_config stats p.p_kenv wsol ~qmemo cl
          then begin
            (match cl.Horn.head with
            | Horn.Kapp (k, _) -> Hashtbl.replace version k (ver k + 1)
            | Horn.Conc _ -> ());
            changed := true
          end
    done
  done;
  let failures =
    List.filter_map
      (fun (idx, cl) ->
        Option.map
          (fun f -> (idx, f))
          (final_check p.p_config p.p_kenv wsol cl))
      sl.Kgraph.sl_cclauses
  in
  {
    sr_slice = i;
    sr_sols =
      List.map (fun k -> (k, Hashtbl.find wsol k)) sl.Kgraph.sl_kvars;
    sr_failures = failures;
  }

(** Merge a slice's result into the authoritative solution. Must be
    called from the coordinating domain, in any order consistent with
    slice dependencies. *)
let apply_slice (p : prep) (r : slice_result) : unit =
  List.iter (fun (k, conjuncts) -> Hashtbl.replace p.p_sol k conjuncts) r.sr_sols;
  p.p_failures := r.sr_failures @ !(p.p_failures)

(** Assemble the final verdict. Failures are re-sorted by original
    clause index, restoring exactly the order the reference schedule
    reports them in. *)
let finish (p : prep) : result =
  let failures =
    List.sort (fun (a, _) (b, _) -> compare a b) !(p.p_failures)
    |> List.map snd
  in
  if failures = [] then Sat p.p_sol else Unsat (failures, p.p_sol)

(** The incremental schedule, run to completion in-process: solve the
    slices sequentially in topological order. *)
let solve_clauses_incremental ?config ?qualifiers ~(kvars : Horn.kvar list)
    (clauses : Horn.clause list) : result =
  let p = prepare ?config ?qualifiers ~kvars clauses in
  for i = 0 to slice_count p - 1 do
    apply_slice p (run_slice p i)
  done;
  finish p

(** Solve a nested constraint (flattens first). *)
let solve ?config ?qualifiers ~(kvars : Horn.kvar list) (c : Horn.cstr) :
    result =
  solve_clauses_incremental ?config ?qualifiers ~kvars (Horn.flatten c)

(** Evaluate a single clause under a (final) solution, without touching
    it: substitute the solution into hypotheses and head, slice, and ask
    the solver whether the implication is valid. Used by lint passes to
    test side conditions (e.g. overflow bounds) against the fixpoint
    solution the checker already computed. Raises {!Unbound_kvar} if the
    head applies a κ missing from the declarations or solution. *)
let clause_query ?(config = Config.default) ~(kvars : Horn.kvar list)
    (sol : solution) (cl : Horn.clause) : Term.t =
  let kenv = Hashtbl.create 16 in
  List.iter (fun kv -> Hashtbl.replace kenv kv.Horn.kname kv) kvars;
  let rhs = apply_head kenv sol cl.Horn.head in
  Term.mk_imp (sliced_hyps config kenv sol cl rhs) rhs

let check_clause ?(config = Config.default) ~(kvars : Horn.kvar list)
    (sol : solution) (cl : Horn.clause) : bool =
  Discharge.valid config (clause_query ~config ~kvars sol cl)

(** Re-check every clause of a system under a claimed solution,
    returning the ones that fail. This is the fixpoint self-check the
    fuzzer's third oracle runs: a [Sat] answer from either schedule
    promises that substituting the solution into each clause yields a
    valid implication, and this function re-establishes that promise
    clause by clause, independently of the weakening loop's bookkeeping
    (in particular of its incremental "which-clause-needs-revisiting"
    worklist). *)
let validate_solution ~(kvars : Horn.kvar list) (sol : solution)
    (clauses : Horn.clause list) : Horn.clause list =
  List.filter (fun cl -> not (check_clause ~kvars sol cl)) clauses

(** Pretty-print a solution (for tests and [--dump-solution]). *)
let pp_solution fmt (sol : solution) =
  let entries =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) sol []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (k, conjuncts) ->
      Format.fprintf fmt "%s := %a@." k Term.pp (Term.mk_and conjuncts))
    entries
