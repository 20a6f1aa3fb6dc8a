(** Tests for [lib/absint]: algebraic properties of the
    interval×congruence domain (γ-soundness of every transfer function
    against the truncated concrete semantics, lattice laws for
    join/meet/widen/narrow), back-edge and widening-point detection in
    the dataflow framework, difference-bound entailment, a
    widening/narrowing precision check on a counting loop, and the
    discharge layer's byte-identity promise ([--absint] vs
    [--no-absint] on a Table-1 workload, with crosscheck clean). *)

module Dom = Flux_absint.Dom
module Env = Flux_absint.Env
module Absint = Flux_absint.Absint
module Discharge = Flux_absint.Discharge
module Ir = Flux_mir.Ir
module Dataflow = Flux_mir.Dataflow
module Ast = Flux_syntax.Ast
module Checker = Flux_check.Checker
module Workloads = Flux_workloads.Workloads
open Flux_smt

(* ------------------------------------------------------------------ *)
(* Domain algebra (randomized)                                         *)
(* ------------------------------------------------------------------ *)

(** Random abstract values through the normalizing constructor: raw
    (lo, hi, m, r) tuples, including empty/contradictory ones (which
    reduce to ⊥) and unbounded sides. *)
let gen_dom : Dom.t QCheck.Gen.t =
  let open QCheck.Gen in
  let bound = oneof [ return None; map (fun n -> Some n) (int_range (-8) 8) ] in
  let* lo = bound in
  let* hi = bound in
  let* m = int_range 0 5 in
  let* r = int_range (-4) 5 in
  return (Dom.make ~lo ~hi ~m ~r)

let gen_pair = QCheck.Gen.pair gen_dom gen_dom

(* concrete sample points; wide enough to stick out of every generated
   bound *)
let points = List.init 25 (fun i -> i - 12)

let mem_pairs a b f =
  List.for_all
    (fun x ->
      List.for_all
        (fun y -> if Dom.mem x a && Dom.mem y b then f x y else true)
        points)
    points

let prop_gamma_arith =
  QCheck.Test.make ~name:"transfer functions are γ-sound (+, -, *, /, %)"
    ~count:500 (QCheck.make gen_pair) (fun (a, b) ->
      mem_pairs a b (fun x y ->
          Dom.mem (x + y) (Dom.add a b)
          && Dom.mem (x - y) (Dom.sub a b)
          && Dom.mem (x * y) (Dom.mul a b)
          && (y = 0
             || (* OCaml / and mod are the paper's truncated semantics *)
             Dom.mem (x / y) (Dom.div a b) && Dom.mem (x mod y) (Dom.md a b))))

let prop_join_meet =
  QCheck.Test.make ~name:"join is an upper bound, meet is exact" ~count:500
    (QCheck.make gen_pair) (fun (a, b) ->
      List.for_all
        (fun x ->
          (* γ(a) ∪ γ(b) ⊆ γ(a ⊔ b) *)
          ((not (Dom.mem x a || Dom.mem x b)) || Dom.mem x (Dom.join a b))
          (* γ(a ⊓ b) = γ(a) ∩ γ(b) on sampled points *)
          && Dom.mem x (Dom.meet a b) = (Dom.mem x a && Dom.mem x b))
        points)

let prop_widen_narrow =
  QCheck.Test.make ~name:"widen over-approximates join; narrow keeps meets"
    ~count:500 (QCheck.make gen_pair) (fun (a, b) ->
      List.for_all
        (fun x ->
          ((not (Dom.mem x a || Dom.mem x b)) || Dom.mem x (Dom.widen a b))
          && ((not (Dom.mem x a && Dom.mem x b)) || Dom.mem x (Dom.narrow a b)))
        points)

let prop_leq_monotone =
  QCheck.Test.make ~name:"leq agrees with γ-inclusion; join/widen dominate"
    ~count:500 (QCheck.make gen_pair) (fun (a, b) ->
      Dom.leq a (Dom.join a b)
      && Dom.leq b (Dom.join a b)
      && Dom.leq (Dom.join a b) (Dom.widen a b)
      && Dom.leq (Dom.meet a b) a
      && ((not (Dom.leq a b)) || List.for_all (fun x -> (not (Dom.mem x a)) || Dom.mem x b) points))

(* ------------------------------------------------------------------ *)
(* Back edges and widening points                                      *)
(* ------------------------------------------------------------------ *)

let lower_fn src name : Ir.body =
  let prog = Flux_syntax.Parser.parse_program src in
  Flux_syntax.Typeck.check_program prog;
  match List.assoc_opt name (Flux_mir.Lower.lower_program prog) with
  | Some body -> body
  | None -> Alcotest.fail ("no body for " ^ name)

let loop_src =
  {|
#[lr::sig(fn() -> i32)]
fn count() -> i32 {
    let mut i = 0;
    while i < 10 {
        i = i + 1;
    }
    return i;
}
|}

let straight_src =
  {|
#[lr::sig(fn(i32) -> i32)]
fn id(n: i32) -> i32 {
    let x = n;
    return x;
}
|}

let back_edges_loop () =
  let body = lower_fn loop_src "count" in
  let edges = Dataflow.back_edges body in
  Alcotest.(check int) "one back edge for one loop" 1 (List.length edges);
  let src, dst = List.hd edges in
  Alcotest.(check bool) "back edge runs backwards in the DFS" true (dst <= src);
  let wp = Dataflow.widening_points body in
  Alcotest.(check bool) "its target is the widening point" true wp.(dst);
  Alcotest.(check int) "exactly one widening point" 1
    (Array.fold_left (fun a b -> if b then a + 1 else a) 0 wp)

let back_edges_straight () =
  let body = lower_fn straight_src "id" in
  Alcotest.(check int) "no back edges in straight-line code" 0
    (List.length (Dataflow.back_edges body));
  Alcotest.(check bool) "no widening points either" true
    (Array.for_all not (Dataflow.widening_points body))

(* ------------------------------------------------------------------ *)
(* Widening/narrowing precision on the counting loop                   *)
(* ------------------------------------------------------------------ *)

let counting_loop_exact () =
  let body = lower_fn loop_src "count" in
  let a = Absint.analyze body in
  let i_local =
    let found = ref (-1) in
    Array.iteri
      (fun l (ld : Ir.local_decl) -> if ld.Ir.ld_name = "i" then found := l)
      body.Ir.mb_locals;
    !found
  in
  Alcotest.(check bool) "local i found" true (i_local >= 0);
  (* the block that returns sees the narrowed post-loop state: the
     widened +∞ bound must have been refined back to exactly 10 *)
  (* lowering also emits an unreachable trailing return block (its
     abstract state is ⊥); the reachable one comes first *)
  let return_block =
    let found = ref (-1) in
    Array.iteri
      (fun bb blk ->
        if blk.Ir.term = Ir.TReturn && !found < 0 then found := bb)
      body.Ir.mb_blocks;
    !found
  in
  let st = Absint.before_term a return_block in
  Alcotest.(check (option int))
    "i is exactly 10 after the loop" (Some 10)
    (Dom.is_const (Absint.local_value a st i_local))

(* ------------------------------------------------------------------ *)
(* Difference-bound entailment                                         *)
(* ------------------------------------------------------------------ *)

let x = Term.var ~sort:Sort.Int "x"
let y = Term.var ~sort:Sort.Int "y"
let z = Term.var ~sort:Sort.Int "z"

let env_entailment () =
  let e =
    Env.of_hyps
      [ Term.ge x (Term.int 0); Term.mk_eq y (Term.add x (Term.int 1)) ]
  in
  Alcotest.(check bool) "x >= 0, y = x+1 |= y >= 1" true
    (Env.entails e (Term.ge y (Term.int 1)));
  Alcotest.(check bool) "y > x follows" true (Env.entails e (Term.gt y x));
  Alcotest.(check bool) "y >= 2 must NOT be entailed" false
    (Env.entails e (Term.ge y (Term.int 2)));
  let chain =
    Env.of_hyps [ Term.lt x y; Term.lt y z ]
  in
  Alcotest.(check bool) "strict chain: x+2 <= z" true
    (Env.entails chain (Term.le (Term.add x (Term.int 2)) z));
  Alcotest.(check bool) "x+3 <= z must NOT be entailed" false
    (Env.entails chain (Term.le (Term.add x (Term.int 3)) z));
  (* contradictory hypotheses entail anything *)
  let contra = Env.of_hyps [ Term.lt x y; Term.lt y x ] in
  Alcotest.(check bool) "inconsistent env entails everything" true
    (Env.entails contra (Term.ge x (Term.int 1000)))

(** Every entailment the environment claims on random solver terms must
    be confirmed by the solver — the exact invariant [Discharge.valid]
    rests on (a tighter, directed version of the fuzz oracle). *)
let prop_discharge_sound =
  QCheck.Test.make ~name:"env entailment implies solver validity" ~count:300
    (QCheck.make Test_smt.gen_term) (fun t ->
      if Discharge.try_valid Config.default t then Solver.valid t
      else true)

(* ------------------------------------------------------------------ *)
(* Byte-identity: --absint vs --no-absint                              *)
(* ------------------------------------------------------------------ *)

let render (r : Checker.report) : string =
  String.concat "\n"
    (List.map
       (fun (fr : Checker.fn_report) ->
         Format.asprintf "%s kvars=%d clauses=%d errors=[%s] sol=%s"
           fr.Checker.fr_name fr.Checker.fr_kvars fr.Checker.fr_clauses
           (String.concat ";"
              (List.map
                 (fun e -> Format.asprintf "%a" Checker.pp_error e)
                 fr.Checker.fr_errors))
           (match fr.Checker.fr_solution with
           | None -> "-"
           | Some sol ->
               Format.asprintf "%a" Flux_fixpoint.Solve.pp_solution sol))
       r.Checker.rp_fns)

let run_rendered ~absint ~crosscheck src =
  render
    (Checker.check_source
       ~config:
         { Config.default with absint; absint_crosscheck = crosscheck }
       src)

let discharge_byte_identity () =
  let b = Option.get (Workloads.find "bsearch") in
  let src = b.Workloads.bm_flux in
  let off = run_rendered ~absint:false ~crosscheck:false src in
  let on = run_rendered ~absint:true ~crosscheck:false src in
  Alcotest.(check string) "verdicts byte-identical with discharge on" off on;
  Flux_smt.Profile.reset ();
  let xc = run_rendered ~absint:true ~crosscheck:true src in
  Alcotest.(check string) "crosscheck mode changes nothing" off xc;
  let fails =
    match
      List.assoc_opt "absint.crosscheck_fail" (Flux_smt.Profile.snapshot ())
    with
    | Some (n, _, _) -> n
    | None -> 0
  in
  Alcotest.(check int) "zero crosscheck disagreements" 0 fails;
  let discharged =
    match List.assoc_opt "absint.discharged" (Flux_smt.Profile.snapshot ()) with
    | Some (n, _, _) -> n
    | None -> 0
  in
  Alcotest.(check bool) "some clauses were discharged" true (discharged > 0)

(* ------------------------------------------------------------------ *)
(* The environments of a hypothesis's slices                           *)
(* ------------------------------------------------------------------ *)

(** [None] when {!Env.slice} gives the slice at [ks] of [c] the
    environment [Env.of_hyps [mk_and slice]] builds — the same
    indices, the same closed matrix — and both decide each of [goals]
    alike; otherwise what differs. *)
let slice_env_mismatch (s : Env.slices) (c : Term.cone) (ks : int list)
    (goals : Term.t list) : string option =
  let got = Env.slice s ks in
  let want = Env.of_hyps [ Term.mk_and (Term.cone_terms c ks) ] in
  if got.Env.bot <> want.Env.bot then
    Some (Printf.sprintf "bot %b, of_hyps %b" got.Env.bot want.Env.bot)
  else if not (Env.SMap.equal Int.equal got.Env.idx want.Env.idx) then
    Some "indices differ"
  else if got.Env.m <> want.Env.m then Some "closed matrices differ"
  else
    List.find_map
      (fun g ->
        if Env.entails got g = Env.entails want g then None
        else Some (Format.asprintf "decides %a differently" Term.pp g))
      goals

let env_pool = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |]

(** Constants: mostly small, sometimes at or near the clamp ([2^60]),
    either sign. *)
let gen_const : int QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (12, int_range (-4) 4);
      ( 1,
        oneofl
          [ Env.big - 1; Env.big / 2; Env.big / 4; -(Env.big / 2); 1 - Env.big ]
      );
    ]

(** Hypotheses over a small variable pool, so that they split into a
    few components: difference and bound atoms (a strict cycle makes a
    component ⊥), equalities, atoms outside the DBM fragment
    (nonlinear, three variables, a division), disjunctions,
    variable-free [false] and a variable-free contradictory comparison
    built raw. Goals: comparisons (also over a variable no hypothesis
    has), [Imp], [Ite], [Ne], conjunctions and disjunctions. *)
let gen_env_case : (Term.t list * Term.t list) QCheck.Gen.t =
  let open QCheck.Gen in
  let v = map (fun i -> Term.var env_pool.(i)) (int_bound 7) in
  let k = map Term.int gen_const in
  let atom =
    frequency
      [
        (6, map3 (fun a b c -> Term.le a (Term.add b c)) v v k);
        (3, map2 (fun a b -> Term.lt a b) v v);
        (3, map2 Term.le v k);
        (2, map2 Term.ge v k);
        (2, map3 (fun a b c -> Term.mk_eq a (Term.add b c)) v v k);
        (1, map3 (fun a b c -> Term.le (Term.mul a b) c) v v k);
        (1, map3 (fun a b c -> Term.le (Term.add a b) c) v v v);
        (1, map2 (fun a c -> Term.le (Term.div a (Term.int 2)) c) v k);
        (1, map2 (fun a b -> Term.mk_or [ Term.lt a b; Term.lt b a ]) v v);
        ( 1,
          oneofl
            [ Term.ff; Term.Cmp (Term.Le, Term.Int 1, Term.Int 0) ] );
      ]
  in
  let goal_atom =
    let v' =
      frequency [ (8, v); (1, return (Term.var "absent")) ]
    in
    frequency
      [
        (4, map3 (fun a b c -> Term.le a (Term.add b c)) v' v' k);
        (2, map2 Term.lt v' v');
        (1, map2 Term.ge v' k);
        (1, map2 Term.ne v' v');
        (1, map2 (fun a b -> Term.mk_eq a b) v' v');
      ]
  in
  let goal =
    frequency
      [
        (4, goal_atom);
        (2, map2 Term.mk_imp goal_atom goal_atom);
        (1, map3 Term.ite goal_atom goal_atom goal_atom);
        (1, map2 (fun a b -> Term.mk_and [ a; b ]) goal_atom goal_atom);
        (1, map2 (fun a b -> Term.mk_or [ a; b ]) goal_atom goal_atom);
      ]
  in
  pair (list_size (int_range 1 14) atom) (list_size (int_range 1 6) goal)

let prop_slice_envs =
  QCheck.Test.make
    ~name:"slice environments match the slice's own, goal by goal"
    ~count:1500
    (QCheck.make gen_env_case ~print:(fun (hyps, goals) ->
         Format.asprintf "hyps [%a] goals [%a]"
           (Format.pp_print_list Term.pp) hyps
           (Format.pp_print_list Term.pp) goals))
    (fun (hyps, goals) ->
      let c = Term.cone hyps in
      let s = Env.slices c in
      List.for_all
        (fun g ->
          let seed = Term.free_vars g in
          Term.VarSet.is_empty seed
          ||
          match slice_env_mismatch s c (Term.cone_slice c seed) goals with
          | None -> true
          | Some m -> QCheck.Test.fail_report m)
        goals)

(** A ⊥ component makes exactly the slices holding it ⊥; a slice
    without it keeps its bounds. Constants at the clamp take the
    slice's own closure. *)
let slice_env_cases () =
  let v = Term.var in
  let hyps =
    Term.
      [
        lt (v "a") (v "b");
        lt (v "b") (v "a");
        le (v "c") (int 3);
        ff;
        le (v "d") (add (v "c") (int 1));
        le (mul (v "e") (v "f")) (int 0);
      ]
  in
  let c = Term.cone hyps in
  let s = Env.slices c in
  let slice seed = Term.cone_slice c (Term.VarSet.of_list seed) in
  Alcotest.(check bool) "slice with the cycle is ⊥" true
    (Env.slice s (slice [ "a" ])).Env.bot;
  let e = Env.slice s (slice [ "d" ]) in
  Alcotest.(check bool) "slice without it is not" false e.Env.bot;
  Alcotest.(check bool) "and bounds d" true
    (Env.entails e (Term.le (v "d") (Term.int 4)));
  List.iter
    (fun (seed, goals) ->
      match slice_env_mismatch s c (slice seed) goals with
      | None -> ()
      | Some m -> Alcotest.fail m)
    [
      ([ "a" ], []);
      ([ "d" ], Term.[ le (v "d") (int 4); mk_imp (le (v "c") (int 0)) (le (v "d") (int 1)) ]);
      ([ "e" ], []);
      ([ "a"; "c" ], []);
    ];
  let huge = Env.big - 1 in
  let hyps =
    Term.[ le (v "a") (int huge); ge (v "b") (int (-huge)); le (v "a") (v "b") ]
  in
  let c = Term.cone hyps in
  let s = Env.slices c in
  match
    slice_env_mismatch s c
      (Term.cone_slice c (Term.VarSet.singleton "a"))
      Term.[ le (v "a") (int huge); le (sub (v "a") (v "b")) (int 0) ]
  with
  | None -> ()
  | Some m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* The unboxed closure against the boxed one                           *)
(* ------------------------------------------------------------------ *)

(** The reference for {!Env.of_atoms}' matrix: weights boxed as [int
    option] ([None] is +∞), installed and closed by Floyd–Warshall as
    written before the matrix was unboxed. Returns whether the atoms are
    contradictory and, when not, the closed matrix. *)
let boxed_closure (atoms : Lia.lin list) : bool * int option array array =
  let clamp c = if c >= Env.big then None else Some (max (-Env.big) c) in
  let w_add a b =
    match (a, b) with Some a, Some b -> clamp (a + b) | _ -> None
  in
  let w_min a b =
    match (a, b) with
    | Some a, Some b -> Some (min a b)
    | None, w | w, None -> w
  in
  let idx, vars = Env.index atoms in
  let n = vars + 1 in
  let m =
    Array.init n (fun i -> Array.init n (fun j -> if i = j then Some 0 else None))
  in
  let edge i j c = m.(i).(j) <- w_min m.(i).(j) (Some c) in
  let install (l : Lia.lin) =
    let at x = Env.SMap.find x idx in
    match Env.SMap.bindings l.coeffs with
    | [] -> if l.const > 0 then raise Exit
    | [ (x, 1) ] -> edge (at x) 0 (-l.const)
    | [ (x, -1) ] -> edge 0 (at x) (-l.const)
    | [ (x, 1); (y, -1) ] | [ (y, -1); (x, 1) ] -> edge (at x) (at y) (-l.const)
    | _ -> ()
  in
  match List.iter install atoms with
  | exception Exit -> (true, m)
  | () ->
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            m.(i).(j) <- w_min m.(i).(j) (w_add m.(i).(k) m.(k).(j))
          done
        done
      done;
      let neg = ref false in
      for i = 0 to n - 1 do
        match m.(i).(i) with Some c when c < 0 -> neg := true | _ -> ()
      done;
      (!neg, m)

(** Atoms [lin ≤ 0] over a small pool: bounds and differences (so
    cycles, negative ones included, are common), constants at or near
    the clamp, constant atoms either way, and atoms outside the DBM
    fragment. *)
let gen_dbm_atoms : Lia.lin list QCheck.Gen.t =
  let open QCheck.Gen in
  let v = map (fun i -> Lia.lin_var env_pool.(i)) (int_bound 4) in
  let k = map Lia.lin_const gen_const in
  let atom =
    frequency
      [
        (6, map3 (fun a b c -> Lia.lin_add (Lia.lin_sub a b) c) v v k);
        (2, map2 Lia.lin_add v k);
        (2, map2 (fun a c -> Lia.lin_add (Lia.lin_scale (-1) a) c) v k);
        (1, map Lia.lin_const (int_range (-2) 1));
        (1, map3 (fun a b c -> Lia.lin_add (Lia.lin_add a b) c) v v k);
        (1, map2 (fun a c -> Lia.lin_add (Lia.lin_scale 2 a) c) v k);
      ]
  in
  list_size (int_range 0 16) atom

let prop_unboxed_closure =
  QCheck.Test.make ~name:"unboxed DBM closure matches the boxed one"
    ~count:3000
    (QCheck.make gen_dbm_atoms ~print:(fun atoms ->
         Format.asprintf "[%a]"
           (Format.pp_print_list ~pp_sep:Format.pp_print_space Lia.pp_lin)
           atoms))
    (fun atoms ->
      let got = Env.of_atoms atoms in
      let bot, m = boxed_closure atoms in
      got.Env.bot = bot
      && (bot
         || got.Env.m
            = Array.map (Array.map (Option.value ~default:Env.inf)) m))

(* ------------------------------------------------------------------ *)

let qcheck_seed = 0xab51

let tests =
  ( "absint",
    [
      Alcotest.test_case "loop back edge and widening point found" `Quick
        back_edges_loop;
      Alcotest.test_case "straight-line code has no widening points" `Quick
        back_edges_straight;
      Alcotest.test_case "counting loop narrows to an exact constant" `Quick
        counting_loop_exact;
      Alcotest.test_case "difference-bound entailment units" `Quick
        env_entailment;
      Alcotest.test_case "discharge byte-identity on bsearch" `Slow
        discharge_byte_identity;
    ]
    @ List.map
        (QCheck_alcotest.to_alcotest
           ~rand:(Random.State.make [| qcheck_seed |]))
        [
          prop_gamma_arith;
          prop_join_meet;
          prop_widen_narrow;
          prop_leq_monotone;
          prop_discharge_sound;
        ]
    @ [
        Alcotest.test_case "slice environments: ⊥ components and the clamp"
          `Quick slice_env_cases;
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| qcheck_seed |])
          prop_slice_envs;
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| qcheck_seed |])
          prop_unboxed_closure;
      ] )
