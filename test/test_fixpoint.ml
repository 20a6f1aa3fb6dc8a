(** Tests for the Horn constraint solver: the paper's worked examples
    (§4.2 loop inference, §4.3 polymorphic instantiation) and structural
    properties of solving. *)

open Flux_smt
open Flux_fixpoint

let mkk name params = Horn.{ kname = name; kparams = params; kvalues = 1 }

let solution_entails sol k (goal : Term.t) (formals : (string * Sort.t) list) =
  match Hashtbl.find_opt sol k with
  | None -> false
  | Some conjuncts ->
      ignore formals;
      Solver.valid (Term.mk_imp (Term.mk_and conjuncts) goal)

(** §4.2: init_zeros loop — the solver must find κ(b,c) := b = c. *)
let test_init_zeros () =
  let k = mkk "k" [ ("b", Sort.Int); ("c", Sort.Int) ] in
  let open Term in
  let c =
    Horn.conj
      [
        Horn.CHead (Horn.Kapp ("k", [ int 0; int 0 ]), 1);
        Horn.CBind
          ( "j",
            Sort.Int,
            [ Horn.Kapp ("k", [ var "j"; var "j" ]) ],
            Horn.CBind
              ( "n",
                Sort.Int,
                [],
                Horn.CGuard
                  ( lt (var "j") (var "n"),
                    Horn.CHead
                      ( Horn.Kapp
                          ("k", [ add (var "j") (int 1); add (var "j") (int 1) ]),
                        2 ) ) ) );
        Horn.CBind
          ( "b",
            Sort.Int,
            [],
            Horn.CBind
              ( "c",
                Sort.Int,
                [ Horn.Kapp ("k", [ var "b"; var "c" ]) ],
                Horn.CBind
                  ( "n",
                    Sort.Int,
                    [],
                    Horn.CGuard
                      ( eq (var "b") (var "n"),
                        Horn.CHead (Horn.Conc (eq (var "c") (var "n")), 3) ) ) )
          );
      ]
  in
  match Solve.solve ~kvars:[ k ] c with
  | Solve.Sat sol ->
      Alcotest.(check bool)
        "solution entails b = c" true
        (solution_entails sol "k"
           Term.(eq (var "b") (var "c"))
           k.Horn.kparams)
  | Solve.Unsat _ -> Alcotest.fail "expected SAT"

(** §4.3: make_vec — κ₁(ν) ⇒ κ₂(ν), ν = 42 ⇒ κ₂(ν), κ₂(ν) ⇒ ν > 0. *)
let test_make_vec () =
  let k1 = mkk "k1" [ ("v", Sort.Int) ] in
  let k2 = mkk "k2" [ ("v", Sort.Int) ] in
  let open Term in
  let c =
    Horn.conj
      [
        Horn.CBind
          ( "v",
            Sort.Int,
            [ Horn.Kapp ("k1", [ var "v" ]) ],
            Horn.CHead (Horn.Kapp ("k2", [ var "v" ]), 1) );
        Horn.CBind
          ( "v",
            Sort.Int,
            [ Horn.Conc (eq (var "v") (int 42)) ],
            Horn.CHead (Horn.Kapp ("k2", [ var "v" ]), 2) );
        Horn.CBind
          ( "v",
            Sort.Int,
            [ Horn.Kapp ("k2", [ var "v" ]) ],
            Horn.CHead (Horn.Conc (gt (var "v") (int 0)), 3) );
      ]
  in
  match Solve.solve ~kvars:[ k1; k2 ] c with
  | Solve.Sat sol ->
      Alcotest.(check bool)
        "κ2 entails v > 0" true
        (solution_entails sol "k2" Term.(gt (var "v") (int 0)) k2.Horn.kparams)
  | Solve.Unsat _ -> Alcotest.fail "expected SAT"

(** An unsatisfiable system reports the failing tag. *)
let test_unsat_tags () =
  let open Term in
  let c =
    Horn.conj
      [
        Horn.CBind
          ( "x",
            Sort.Int,
            [ Horn.Conc (ge (var "x") (int 0)) ],
            Horn.CHead (Horn.Conc (gt (var "x") (int 0)), 42) );
      ]
  in
  match Solve.solve ~kvars:[] c with
  | Solve.Sat _ -> Alcotest.fail "expected UNSAT"
  | Solve.Unsat (fails, _) ->
      Alcotest.(check (list int)) "tags" [ 42 ]
        (List.map (fun f -> f.Solve.f_tag) fails)

(** A κ with no constraints keeps its full (strongest) instantiation. *)
let test_unconstrained_kvar () =
  let k = mkk "k" [ ("v", Sort.Int); ("x", Sort.Int) ] in
  match Solve.solve ~kvars:[ k ] Horn.CTrue with
  | Solve.Sat sol ->
      Alcotest.(check bool)
        "strongest solution retained" true
        (List.length (Hashtbl.find sol "k") > 0)
  | Solve.Unsat _ -> Alcotest.fail "expected SAT"

(** Multi-value κs (struct indices) constrain every value position. *)
let test_multi_value_kvar () =
  let k =
    Horn.{ kname = "k"; kparams = [ ("a", Sort.Int); ("b", Sort.Int); ("m", Sort.Int) ]; kvalues = 2 }
  in
  let open Term in
  let c =
    Horn.conj
      [
        Horn.CBind
          ( "m",
            Sort.Int,
            [],
            Horn.CHead (Horn.Kapp ("k", [ var "m"; add (var "m") (int 1); var "m" ]), 1)
          );
        Horn.CBind
          ( "a",
            Sort.Int,
            [],
            Horn.CBind
              ( "b",
                Sort.Int,
                [],
                Horn.CBind
                  ( "m",
                    Sort.Int,
                    [ Horn.Kapp ("k", [ var "a"; var "b"; var "m" ]) ],
                    Horn.CHead (Horn.Conc (eq (var "b") (add (var "m") (int 1))), 2)
                  ) ) );
      ]
  in
  match Solve.solve ~kvars:[ k ] c with
  | Solve.Sat _ -> ()
  | Solve.Unsat (fails, _) ->
      Alcotest.failf "expected SAT, failed tags %s"
        (String.concat "," (List.map (fun f -> string_of_int f.Solve.f_tag) fails))

(** Qualifier instantiation produces only well-scoped predicates. *)
let test_qualifier_scope () =
  let params = [ ("v", Sort.Int); ("a", Sort.Int); ("b", Sort.Bool) ] in
  let insts = Qualifier.instantiate_all Qualifier.default params in
  List.iter
    (fun q ->
      Term.VarSet.iter
        (fun x ->
          if not (List.mem_assoc x params) then
            Alcotest.failf "out-of-scope variable %s in %s" x (Term.to_string q))
        (Term.free_vars q))
    insts;
  Alcotest.(check bool) "nonempty" true (List.length insts > 5)

(** Qualifier rotation: a second value position gets instances too. *)
let test_qualifier_rotation () =
  let params = [ ("v1", Sort.Int); ("v2", Sort.Int); ("m", Sort.Int) ] in
  let insts = Qualifier.instantiate_all ~values:2 Qualifier.default params in
  let mentions_v2_first =
    List.exists
      (fun q ->
        match q with
        | Term.Cmp (_, Term.Var ("v2", _), _) | Term.Eq (Term.Var ("v2", _), _) ->
            true
        | _ -> false)
      insts
  in
  Alcotest.(check bool) "v2 constrained" true mentions_v2_first

(** Flattening preserves the number of heads. *)
let test_flatten () =
  let open Term in
  let c =
    Horn.CBind
      ( "x",
        Sort.Int,
        [ Horn.Conc (ge (var "x") (int 0)) ],
        Horn.CAnd
          [
            Horn.CHead (Horn.Conc (ge (var "x") (int 0)), 1);
            Horn.CGuard
              (lt (var "x") (int 10), Horn.CHead (Horn.Conc Term.tt, 2));
          ] )
  in
  let clauses = Horn.flatten c in
  Alcotest.(check int) "two clauses" 2 (List.length clauses);
  let c1 = List.nth clauses 0 in
  Alcotest.(check int) "binder count" 1 (List.length c1.Horn.binders)

(* ------------------------------------------------------------------ *)
(* κ-dependency graph and the incremental schedule                     *)
(* ------------------------------------------------------------------ *)

let clause binders hyps head tag = Horn.{ binders; hyps; head; tag }

(** Chain κ1 → κ2 plus a 2-cycle {κ3, κ4}: three SCCs, laid out
    dependencies-first with the cycle collapsed into one slice. *)
let test_kgraph_sccs () =
  let open Term in
  let kv n = mkk n [ ("v", Sort.Int) ] in
  let kvars = [ kv "k1"; kv "k2"; kv "k3"; kv "k4" ] in
  let b = [ ("v", Sort.Int) ] in
  let clauses =
    [
      clause b
        [ Horn.Conc (ge (var "v") (int 0)) ]
        (Horn.Kapp ("k1", [ var "v" ]))
        1;
      clause b
        [ Horn.Kapp ("k1", [ var "v" ]) ]
        (Horn.Kapp ("k2", [ var "v" ]))
        2;
      clause b
        [ Horn.Kapp ("k3", [ var "v" ]) ]
        (Horn.Kapp ("k4", [ var "v" ]))
        3;
      clause b
        [ Horn.Kapp ("k4", [ var "v" ]) ]
        (Horn.Kapp ("k3", [ var "v" ]))
        4;
      clause b
        [ Horn.Conc (gt (var "v") (int 3)) ]
        (Horn.Kapp ("k3", [ var "v" ]))
        5;
      clause b
        [ Horn.Kapp ("k2", [ var "v" ]) ]
        (Horn.Conc (ge (var "v") (int 0)))
        6;
    ]
  in
  let g = Kgraph.build ~kvars clauses in
  Alcotest.(check int) "three SCCs" 3 g.Kgraph.n_sccs;
  Alcotest.(check int) "four slices incl. root" 4 (Array.length g.Kgraph.slices);
  let slice_of k = Hashtbl.find g.Kgraph.scc_of k in
  let s1 = slice_of "k1" and s2 = slice_of "k2" in
  Alcotest.(check bool) "k1's slice precedes k2's" true (s1 < s2);
  Alcotest.(check bool)
    "the κ3/κ4 cycle shares a slice" true
    (slice_of "k3" = slice_of "k4");
  let sl1 = g.Kgraph.slices.(s1) and sl2 = g.Kgraph.slices.(s2) in
  Alcotest.(check bool)
    "k2's level is above k1's" true
    (sl2.Kgraph.sl_level > sl1.Kgraph.sl_level);
  Alcotest.(check (list string)) "k2 reads k1" [ "k1" ] sl2.Kgraph.sl_ext_kvars;
  (* a concrete-head clause lands on the slice of its last κ hypothesis *)
  Alcotest.(check (list int))
    "concrete clause scheduled on k2's slice" [ 5 ]
    (List.map fst sl2.Kgraph.sl_cclauses)

(** Regression: a clause whose {e head} applies an undeclared κ must
    raise under both schedules — the old silent ⊤ default made the
    clause vacuously valid and masked the missing declaration. *)
let test_unbound_head_kvar () =
  let open Term in
  let cl =
    clause
      [ ("x", Sort.Int) ]
      [ Horn.Conc (ge (var "x") (int 0)) ]
      (Horn.Kapp ("ghost", [ var "x" ]))
      1
  in
  Alcotest.check_raises "full schedule raises" (Solve.Unbound_kvar "ghost")
    (fun () -> ignore (Solve.solve_clauses_full ~kvars:[] [ cl ]));
  Alcotest.check_raises "incremental schedule raises"
    (Solve.Unbound_kvar "ghost") (fun () ->
      ignore (Solve.solve_clauses_incremental ~kvars:[] [ cl ]))

(** An undeclared κ in {e hypothesis} position still defaults to ⊤ —
    dropping it only weakens the left-hand side, which is sound. The
    clause below is unprovable once the ghost hypothesis is ⊤, so both
    schedules must report Unsat rather than raise (or verify). *)
let test_unbound_hyp_kvar_top () =
  let open Term in
  let cl =
    clause
      [ ("x", Sort.Int) ]
      [ Horn.Kapp ("ghost", [ var "x" ]) ]
      (Horn.Conc (ge (var "x") (int 0)))
      7
  in
  let run name solve =
    match solve () with
    | Solve.Unsat (fails, _) ->
        Alcotest.(check (list int))
          name [ 7 ]
          (List.map (fun f -> f.Solve.f_tag) fails)
    | Solve.Sat _ -> Alcotest.failf "%s: expected UNSAT under the ⊤ default" name
  in
  run "full" (fun () -> Solve.solve_clauses_full ~kvars:[] [ cl ]);
  run "incremental" (fun () ->
      Solve.solve_clauses_incremental ~kvars:[] [ cl ])

let tests =
  ( "fixpoint",
    [
      Alcotest.test_case "init_zeros (§4.2)" `Quick test_init_zeros;
      Alcotest.test_case "make_vec (§4.3)" `Quick test_make_vec;
      Alcotest.test_case "unsat tags" `Quick test_unsat_tags;
      Alcotest.test_case "unconstrained kvar" `Quick test_unconstrained_kvar;
      Alcotest.test_case "multi-value kvar" `Quick test_multi_value_kvar;
      Alcotest.test_case "qualifier scoping" `Quick test_qualifier_scope;
      Alcotest.test_case "qualifier rotation" `Quick test_qualifier_rotation;
      Alcotest.test_case "flatten" `Quick test_flatten;
      Alcotest.test_case "kgraph SCC layout" `Quick test_kgraph_sccs;
      Alcotest.test_case "unbound head κ raises" `Quick test_unbound_head_kvar;
      Alcotest.test_case "unbound hypothesis κ is ⊤" `Quick
        test_unbound_hyp_kvar_top;
    ] )
