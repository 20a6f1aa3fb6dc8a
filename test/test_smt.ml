(** Unit and property tests for the SMT substrate. *)

open Flux_smt

let v = Term.var
let x = v "x"
let y = v "y"
let z = v "z"
let n = v "n"

let check_valid name expected t =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) name expected (Solver.valid t))

let check_sat name expected t =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) name expected (Solver.sat t))

let unit_tests =
  [
    (* propositional *)
    check_valid "excluded middle" true Term.(mk_or [ le x y; gt x y ]);
    check_valid "contradiction invalid" false Term.(mk_and [ le x y; gt x y ]);
    check_sat "simple sat" true Term.(lt x y);
    check_sat "x<y && y<x unsat" false Term.(mk_and [ lt x y; lt y x ]);
    (* transitivity *)
    check_valid "lt-le transitivity" true
      Term.(mk_imp (mk_and [ lt x y; le y n ]) (lt x n));
    check_valid "not symmetric" false Term.(mk_imp (lt x y) (lt y x));
    (* integer tightening *)
    check_valid "0<x<2 => x=1" true
      Term.(mk_imp (mk_and [ lt (int 0) x; lt x (int 2) ]) (eq x (int 1)));
    check_valid "strict to nonstrict" true
      Term.(mk_imp (lt x y) (le (add x (int 1)) y));
    check_sat "no integer between" false
      Term.(mk_and [ lt (int 0) x; lt x (int 1) ]);
    (* equalities and disequalities *)
    check_valid "eq substitution" true
      Term.(mk_imp (mk_and [ eq x y; lt y z ]) (lt x z));
    check_valid "diseq split" true
      Term.(mk_imp (mk_and [ ne x y; ge x y ]) (gt x y));
    check_sat "x!=x unsat" false Term.(ne x x);
    (* division linearization *)
    check_valid "midpoint lower" true
      Term.(
        mk_imp
          (mk_and [ le x y; le (int 0) x ])
          (le x (add x (div (sub y x) (int 2)))));
    check_valid "midpoint strict upper" true
      Term.(
        mk_imp
          (mk_and [ lt x y; le (int 0) x ])
          (lt (add x (div (sub y x) (int 2))) y));
    check_valid "halving positive" true
      Term.(mk_imp (ge x (int 0)) (ge (div x (int 2)) (int 0)));
    check_valid "div by 2 bound" true
      Term.(mk_imp (gt x (int 0)) (lt (div x (int 2)) x));
    (* modulo *)
    check_valid "mod range" true
      Term.(
        mk_imp (ge x (int 0))
          (mk_and [ le (int 0) (md x (int 3)); lt (md x (int 3)) (int 3) ]));
    (* truncated (Rust/OCaml) div/mod on negative dividends: the
       quotient rounds toward zero, the remainder takes the dividend's
       sign. The old Euclidean encoding proved (-7)/2 = -4, which the
       interpreter falsifies. *)
    check_valid "(-7)/2 = -3 (truncated)" true
      Term.(eq (div (int (-7)) (int 2)) (int (-3)));
    check_valid "(-7) mod 2 = -1 (truncated)" true
      Term.(eq (md (int (-7)) (int 2)) (int (-1)));
    check_sat "(-7)/2 = -4 (Euclidean) unsat" false
      Term.(eq (div (int (-7)) (int 2)) (int (-4)));
    check_sat "(-7) mod 2 = 1 (Euclidean) unsat" false
      Term.(eq (md (int (-7)) (int 2)) (int 1));
    check_valid "mod sign follows dividend" true
      Term.(mk_imp (le x (int 0)) (le (md x (int 3)) (int 0)));
    check_valid "mod nonneg needs nonneg dividend" false
      Term.(ge (md x (int 2)) (int 0));
    check_valid "truncated div rounds toward zero" true
      Term.(mk_imp (le x (int 0)) (ge (mul (int 2) (div x (int 2))) x));
    (* booleans *)
    check_valid "bool hypothesis" true
      Term.(mk_imp (mk_and [ bvar "b"; mk_imp (bvar "b") (lt x y) ]) (le x y));
    check_valid "iff reasoning" true
      Term.(mk_imp (mk_and [ mk_iff (bvar "b") (lt x y); bvar "b" ]) (lt x y));
    (* uninterpreted functions: Ackermann congruence *)
    check_valid "congruence" true
      Term.(mk_imp (eq x y) (eq (app "f" [ x ]) (app "f" [ y ])));
    check_valid "no spurious congruence" false
      Term.(eq (app "f" [ x ]) (app "f" [ y ]));
    check_valid "congruence 2-ary" true
      Term.(
        mk_imp
          (mk_and [ eq x y; eq z n ])
          (eq (app "g" [ x; z ]) (app "g" [ y; n ])));
    (* nonlinear abstraction is sound: x*y = x*y *)
    check_valid "nonlinear reflexivity" true Term.(eq (mul x y) (mul x y));
    check_valid "nonlinear unknown" false Term.(ge (mul x x) (int 0));
    (* constant times variable stays linear *)
    check_valid "2x <= 2y from x<=y" true
      Term.(mk_imp (le x y) (le (mul (int 2) x) (mul (int 2) y)));
    (* floats are opaque but consistent *)
    check_valid "float branch consistency" true
      Term.(
        mk_imp
          (mk_and [ Cmp (Lt, real 1.0, v ~sort:Sort.Real "f"); lt x y ])
          (lt x y));
    (* ite lifting: z = min(x,y) implies z <= x *)
    check_valid "ite" true
      Term.(mk_imp (eq z (ite (lt x y) x y)) (mk_and [ le z x; le z y ]));
    (* entailment interface *)
    Alcotest.test_case "entails" `Quick (fun () ->
        Alcotest.(check bool) "yes" true
          (Solver.valid Term.(mk_imp (mk_and [ le x y; le y z ]) (le x z)));
        Alcotest.(check bool)
          "sliced" true
          (Solver.valid
             (Solver.sliced_implication
                Term.[ le x y; le y z; lt n (int 0) ]
                Term.(le x z))));
    (* hash-consing: structurally equal smart-constructed terms are
       physically equal, and free_vars memoization agrees with a fresh
       computation *)
    Alcotest.test_case "hash-consing" `Quick (fun () ->
        let t1 = Term.(mk_and [ le x y; eq (add x (int 1)) z ]) in
        let t2 = Term.(mk_and [ le x y; eq (add x (int 1)) z ]) in
        Alcotest.(check bool) "interned phys-eq" true (t1 == t2);
        Alcotest.(check bool) "structural equal agrees" true (Term.equal t1 t2);
        Alcotest.(check bool)
          "hash agrees" true
          (Term.hash t1 = Term.hash t2);
        let fvs = Term.free_vars t1 in
        Alcotest.(check (list string))
          "free vars" [ "x"; "y"; "z" ]
          (Term.VarSet.elements fvs);
        (* memoized result is stable across calls *)
        Alcotest.(check bool)
          "memo stable" true
          (Term.VarSet.equal fvs (Term.free_vars t2)));
  ]

(* ------------------------------------------------------------------ *)
(* Property tests: agreement with brute-force evaluation               *)
(* ------------------------------------------------------------------ *)

let gen_term : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  let var = oneofl [ x; y; z ] in
  let atomg =
    let* a = var in
    let* b = var in
    let* c = int_range (-3) 3 in
    let lhs = Term.add a (Term.int c) in
    oneofl
      [ Term.lt lhs b; Term.le lhs b; Term.eq lhs b; Term.ne lhs b; Term.ge lhs b ]
  in
  fix
    (fun self depth ->
      if depth = 0 then atomg
      else
        frequency
          [
            (3, atomg);
            ( 2,
              map2
                (fun a b -> Term.mk_and [ a; b ])
                (self (depth - 1)) (self (depth - 1)) );
            ( 2,
              map2
                (fun a b -> Term.mk_or [ a; b ])
                (self (depth - 1)) (self (depth - 1)) );
            (1, map Term.mk_not (self (depth - 1)));
            (1, map2 Term.mk_imp (self (depth - 1)) (self (depth - 1)));
          ])
    3

let rec eval_term (env : (string * int) list) (t : Term.t) : int =
  match t with
  | Term.Var (s, _) -> List.assoc s env
  | Term.Int k -> k
  | Term.Binop (Term.Add, a, b) -> eval_term env a + eval_term env b
  | Term.Binop (Term.Sub, a, b) -> eval_term env a - eval_term env b
  | Term.Binop (Term.Mul, a, b) -> eval_term env a * eval_term env b
  | Term.Neg a -> -eval_term env a
  | _ -> failwith "eval_term"

let rec eval_pred (env : (string * int) list) (t : Term.t) : bool =
  match t with
  | Term.Bool b -> b
  | Term.Cmp (op, a, b) -> (
      let a = eval_term env a and b = eval_term env b in
      match op with
      | Term.Lt -> a < b
      | Term.Le -> a <= b
      | Term.Gt -> a > b
      | Term.Ge -> a >= b)
  | Term.Eq (a, b) -> eval_term env a = eval_term env b
  | Term.Ne (a, b) -> eval_term env a <> eval_term env b
  | Term.And ts -> List.for_all (eval_pred env) ts
  | Term.Or ts -> List.exists (eval_pred env) ts
  | Term.Not a -> not (eval_pred env a)
  | Term.Imp (a, b) -> (not (eval_pred env a)) || eval_pred env b
  | Term.Iff (a, b) -> eval_pred env a = eval_pred env b
  | _ -> failwith "eval_pred"

let cube =
  let range = [ -2; -1; 0; 1; 2; 3 ] in
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b -> List.map (fun c -> [ ("x", a); ("y", b); ("z", c) ]) range)
        range)
    range

let prop_validity_sound =
  QCheck.Test.make ~name:"valid formulas have no small counterexample"
    ~count:300 (QCheck.make gen_term) (fun t ->
      if Solver.valid t then List.for_all (fun env -> eval_pred env t) cube
      else true)

let prop_unsat_sound =
  QCheck.Test.make ~name:"unsat formulas have no small model" ~count:300
    (QCheck.make gen_term) (fun t ->
      if not (Solver.sat t) then
        List.for_all (fun env -> not (eval_pred env t)) cube
      else true)

let prop_negation =
  QCheck.Test.make ~name:"valid t implies unsat (not t)" ~count:200
    (QCheck.make gen_term) (fun t ->
      if Solver.valid t then not (Solver.sat (Term.mk_not t)) else true)

let prop_subst_ground =
  QCheck.Test.make ~name:"ground substitution agrees with evaluation"
    ~count:300 (QCheck.make gen_term) (fun t ->
      let env = [ ("x", 1); ("y", -2); ("z", 3) ] in
      let m = List.map (fun (s, k) -> (s, Term.int k)) env in
      match Term.subst m t with
      | Term.Bool b -> b = eval_pred env t
      | t' -> Solver.valid t' = eval_pred env t)

(* Exhaustive differential check of the solver's ground / and %
   against OCaml's truncated-toward-zero semantics (Rust's), over the
   full box [-8,8] x [-8,8] \ {b = 0}: both the claimed quotient and
   every wrong candidate in the box get a definite verdict. Guards the
   Euclidean-encoding regression at the solver layer. *)
let divmod_exhaustive () =
  for a = -8 to 8 do
    for b = -8 to 8 do
      if b <> 0 then begin
        let ta = Term.int a and tb = Term.int b in
        Alcotest.(check bool)
          (Printf.sprintf "%d / %d = %d is valid" a b (a / b))
          true
          (Solver.valid (Term.eq (Term.div ta tb) (Term.int (a / b))));
        Alcotest.(check bool)
          (Printf.sprintf "%d mod %d = %d is valid" a b (a mod b))
          true
          (Solver.valid (Term.eq (Term.md ta tb) (Term.int (a mod b))));
        (* and the Euclidean (always non-negative) remainder, where it
           differs, is definitely refuted *)
        let eucl = ((a mod b) + abs b) mod abs b in
        if eucl <> a mod b then
          Alcotest.(check bool)
            (Printf.sprintf "%d mod %d is not the Euclidean %d" a b eucl)
            false
            (Solver.sat (Term.eq (Term.md ta tb) (Term.int eucl)))
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* Solver context: valid_under agrees with valid exactly               *)
(* ------------------------------------------------------------------ *)

(** Run [f] from zeroed statistics: its answer (or [Ill_sorted]
    message), the statistics it left behind, the Fourier–Motzkin work
    of its theory checks (all of it less the div/mod sign checks', which
    a context may share between queries) and whether it took the
    prepared path ([solver.hyp_reused], [solver.hyp_rebuilt]). *)
let fresh_run f =
  Solver.reset_stats ();
  let count k = Profile.count k in
  let theory_rows () = count "lia.fm_rows" - count "solver.divmod_fm_rows"
  and theory_copies () =
    count "lia.fm_row_copies" - count "solver.divmod_fm_row_copies"
  in
  let rows0 = theory_rows () and copies0 = theory_copies () in
  let reused0 = count "solver.hyp_reused"
  and rebuilt0 = count "solver.hyp_rebuilt" in
  let r = try Ok (f ()) with Term.Ill_sorted m -> Error m in
  let s = Solver.stats () in
  ( r,
    [
      s.queries;
      s.theory_checks;
      s.max_atoms;
      theory_rows () - rows0;
      theory_copies () - copies0;
    ],
    (count "solver.hyp_reused" - reused0, count "solver.hyp_rebuilt" - rebuilt0)
  )

(** Ask every goal under one [hyp] (so later goals reuse the context
    the first one built), and each goal through [valid] from scratch:
    same answers, same statistics and Fourier–Motzkin work (which pins
    the theory's lists and component order). [theory_checks], when
    given, is the number of theory checks each goal must take;
    [reused], whether each goal takes the prepared path (else the
    rebuilt one), so a silent fallback fails the case. *)
let context_agrees ?theory_checks ?reused name lhs goals =
  Alcotest.test_case name `Quick (fun () ->
      let h = Solver.hyp lhs in
      List.iteri
        (fun i g ->
          let what = Printf.sprintf "%s, goal %d" name i in
          let imp = Term.mk_imp lhs g in
          let got, got_stats, path =
            fresh_run (fun () -> Solver.valid_under h g)
          in
          let want, want_stats, _ = fresh_run (fun () -> Solver.valid imp) in
          Alcotest.(check (result bool string)) what want got;
          Alcotest.(check (list int))
            (what ^ ": queries, theory checks, max atoms, FM rows")
            want_stats got_stats;
          Option.iter
            (fun checks ->
              Alcotest.(check int)
                (what ^ ": theory checks") (List.nth checks i)
                (List.nth got_stats 1))
            theory_checks;
          Option.iter
            (fun reused ->
              Alcotest.(check (pair int int))
                (what ^ ": hyp_reused, hyp_rebuilt")
                (if List.nth reused i then (1, 0) else (0, 1))
                path)
            reused)
        goals)

let context_tests =
  let open Term in
  let f a = app "f" [ a ] in
  [
    context_agrees "context: linear hypothesis"
      (mk_and [ le x y; le y z; lt n (int 0) ])
      [ le x z; lt x z; ge n (int 0); le x z; mk_or [ lt n x; le z y ] ];
    context_agrees "context: division needs unit facts"
      ~reused:[ true; true; true ]
      (mk_and [ le (int 0) x; eq y (div x (int 2)) ])
      [ le y x; ge y (int 0); lt y x ];
    (* the negated goal [x < 0] settles the dividend's sign; under
       [y <= x] it stays unsettled; [x % 2] shares the hypothesis's
       quotient *)
    context_agrees "context: division sign from the goal"
      ~reused:[ true; false; false ]
      (mk_and [ eq y (div x (int 2)); le z y ])
      [ ge x (int 0); le y x; ge (md x (int 2)) (int 0) ];
    context_agrees "context: goals with %, x*y, f(x), if"
      (mk_and [ lt (int 0) x; le x y; eq z (f x) ])
      [
        ge (md x (int 2)) (int 0);
        ge (mul x y) (int 0);
        eq (f x) z;
        eq (f y) z;
        le (ite (lt x y) x y) y;
        le x y;
      ];
    context_agrees "context: Ackermannized hypothesis"
      (mk_and [ eq x y; eq z (f x); eq n (f y) ])
      [ eq z n; le z n; lt z n; eq x y ];
    context_agrees "context: hypothesis with if"
      (mk_and [ eq z (ite (lt x y) x y); ge x (int 0) ])
      [ le z x; le z y; lt z x; ge z (int 0) ];
    context_agrees "context: nonlinear hypothesis"
      (mk_and [ eq z (mul x y); eq x y ])
      [ eq z (mul y x); ge z (int 0); eq x y ];
    context_agrees "context: true/false collapses" tt [ le x y; tt; ff ];
    context_agrees "context: false hypothesis" ff [ le x y; ff ];
    context_agrees "context: goal true or false"
      (mk_and [ le x y; le y z ])
      [ tt; ff; le x z ];
    context_agrees "context: ill-sorted hypothesis"
      (And [ le x y; Not (int 3) ])
      [ le x y; Var ("b", Sort.Int) ];
    context_agrees "context: ill-sorted goal"
      (mk_and [ le x y; le y z ])
      [ Var ("b", Sort.Int); Not (int 3); le x z ];
  ]

(** Queries that divide by a constant: the quotient's sign bounds are
    definitions, and a query whose divisions all have a settled sign is
    prepared once per sign vector. *)
let division_context_tests =
  let open Term in
  let lo = v "lo" and hi = v "hi" and mid = v "mid" in
  [
    context_agrees "context: bsearch midpoint"
      ~reused:[ true; true; true; true; true ]
      (mk_and [ lt lo hi; eq mid (add lo (div (sub hi lo) (int 2))) ])
      [ le lo mid; lt mid hi; le mid hi; lt lo mid; le (int 0) mid ];
    (* only [¬g] settles the sign of [a - b]: negative, or positive *)
    context_agrees "context: division sign only the goal settles"
      ~reused:[ true; true; false ]
      (mk_and [ eq y (div (sub x n) (int 3)); le z y ])
      [ le x n; ge x n; le z x ];
    (* [lo + hi]'s sign comes from the hypothesis; the goals share that
       dividend and its prepared query *)
    context_agrees "context: goal dividing by a constant"
      ~reused:[ true; true; true; true ]
      (mk_and [ le (int 0) lo; le lo x; le x hi ])
      [
        le x (div (add lo hi) (int 2));
        le lo (div (add lo hi) (int 2));
        le (div (add lo hi) (int 2)) hi;
        ge (md (add lo hi) (int 2)) (int 0);
      ];
    context_agrees "context: goal division of unsettled sign"
      ~reused:[ false; false ]
      (mk_and [ le x y; le (int 0) y ])
      [ le (div x (int 2)) y; le (md x (int 4)) (int 3) ];
    (* the hypothesis takes the goal's quotient *)
    context_agrees "context: goal dividend divided in the hypothesis"
      ~reused:[ true; true; true ]
      (mk_and [ eq mid (div (add lo hi) (int 2)); le (int 0) lo; le lo hi ])
      [ le (div (add lo hi) (int 2)) hi; ge (md (add lo hi) (int 2)) (int 0);
        le lo mid ];
    (* the hypothesis takes the goal's quotient of the dividend they
       share and numbers its other one after it *)
    context_agrees "context: goal sharing one of two hypothesis dividends"
      ~reused:[ true; true; true; true ]
      (mk_and
         [ le (int 0) lo; lt lo hi; eq mid (add lo (div (sub hi lo) (int 2)));
           eq y (div (add lo hi) (int 2)) ])
      [
        le (div (sub hi lo) (int 2)) hi;
        le (div (add lo hi) (int 2)) hi;
        le mid y;
        lt (add (div (sub hi lo) (int 2)) (div (add lo hi) (int 2))) hi;
      ];
    (* the hypothesis's quotient is named after the goal's *)
    context_agrees "context: goal and hypothesis divide different dividends"
      ~reused:[ true; true; true; true ]
      (mk_and
         [ le (int 0) lo; lt lo hi; eq mid (add lo (div (sub hi lo) (int 2))) ])
      [
        le mid (div (add lo hi) (int 2));
        le (div (add lo hi) (int 2)) mid;
        lt (div hi (int 2)) hi;
        le mid (int 7);
      ];
    (* dividing goals over hypothesis divisions that chain; the FM
       counts pin the order of the sign bounds (the hypothesis's, latest
       first, then the goal's). [a + m] has no settled sign, so each
       query takes the rebuilt skeleton with its bounds split *)
    context_agrees "context: goal and hypothesis bounds in valid's order"
      ~reused:[ false; false; false; false; false ]
      (let a = v "a" and b = v "b" and c = v "c" and m = v "m" and k = v "k" in
       mk_and
         [ le (int 0) a; lt a b; eq m (add a (div (sub b a) (int 2)));
           eq k (div (add a m) (int 3)); le c k; le k (add c (int 2)) ])
      (let a = v "a" and b = v "b" and c = v "c" and m = v "m" and k = v "k" in
       [
         le (div (add b c) (int 2)) m;
         le (add (div (add m k) (int 4)) c) b;
         lt (div (add a b) (int 2)) (add k (div (add c m) (int 5)));
         le (md (add b k) (int 3)) (sub m c);
         le k (div (add b m) (int 2));
       ]);
    (* [x / 2] and [x % 2] share one quotient *)
    context_agrees "context: repeated division"
      ~reused:[ true; true; true ]
      (mk_and [ le (int 0) x; eq z (md x (int 2)); eq n (div x (int 2)) ])
      [ le z (int 1); le n x; eq x (add (mul (int 2) n) z) ];
    (* the unit facts say nothing of the inner quotient's sign *)
    context_agrees "context: nested division"
      ~reused:[ false; false ]
      (mk_and [ le (int 0) x; eq y (div (div x (int 2)) (int 2)) ])
      [ le y x; le (mul (int 4) y) x ];
    context_agrees "context: division beside a product"
      ~reused:[ false; false ]
      (mk_and [ le (int 0) x; eq y (div x (int 2)); eq z (mul x n) ])
      [ le y x; le (div n (int 2)) z ];
    context_agrees "context: division in a disjunction"
      ~reused:[ false; false ]
      (mk_and [ le (int 0) x; mk_or [ eq y (div x (int 2)); eq y x ] ])
      [ le y x; mk_or [ le y x; eq y n ] ];
  ]

(** Goals answered from a prepared (flat) hypothesis, or kept off it. *)
let prepared_context_tests =
  let open Term in
  [
    (* the query asserts [¬g]: its literal is already a conjunct, so the
       query takes the rebuilt skeleton, which lists that literal last.
       Moving [a = b] behind [y = z] numbers the infeasible {y, z}
       component first, so the feasible {a, b, c} one is never
       decided. *)
    context_agrees "context: goal atom in the hypothesis, same polarity"
      (let a = v "a" and b = v "b" and c = v "c" in
       mk_and
         [ eq y z; eq a b; le b c; le c (int 1); le (int (-2)) a;
           le z (int 0); le (int 1) y; ne x n ])
      [ ne (v "a") (v "b"); eq x n; ne y z; le x z ];
    (* the goal is a conjunct: [¬g] is a unit conflict *)
    context_agrees ~theory_checks:[ 0; 0; 0; 0 ]
      "context: goal atom in the hypothesis, opposite polarity"
      (mk_and [ le x y; eq y z; ne x n; mk_not (bvar "p"); le z n ])
      [ eq y z; ne x n; mk_not (bvar "p"); le z n ];
    context_agrees "context: boolean-variable atom"
      (mk_and [ bvar "p"; le x y; mk_not (bvar "q"); lt y z ])
      [ bvar "p"; bvar "q"; mk_not (bvar "p"); bvar "r"; le x z; lt z x ];
    context_agrees "context: repeated conjunct"
      (And [ le x y; le y z; le x y; ne y n; ne y n ])
      [ le x z; lt z x; le x y; eq y n ];
    context_agrees "context: nested And/Or"
      (mk_and [ le x y; mk_or [ lt y z; mk_and [ eq y n; le n z ] ] ])
      [ le x z; lt z x; mk_or [ le x z; eq x n ] ];
    (* {a, b}, {x, y} and {z, n} are components (rooted in that order)
       until a goal joins some of them; the components are decided in
       root order up to the first infeasible one, so the FM counts pin
       where the merged one goes. A conjunction goal takes the rebuilt
       skeleton. *)
    context_agrees "context: goal merging two hypothesis components"
      (let a = v "a" and b = v "b" in
       mk_and
         [ le z n; le n (int 0); le (int (-4)) z; le x y; le y (int 3);
           le (int 0) x; le a b; le b (int 1); le (int (-2)) a;
           eq (v "w") (int 2) ])
      [
        le x (int 3); le x z; le z (add (v "a") (int 2)); le x (v "u");
        lt z x; le (add x n) (int 3); eq (add y z) (v "u");
        le (v "u") (v "w"); ne (add x z) (int 1); le (add x z) (int 3);
        mk_and [ le x (int 3); le z (int 0) ];
      ];
  ]

(* ------------------------------------------------------------------ *)
(* Lia: the component split decides each component on its own         *)
(* ------------------------------------------------------------------ *)

(** A small system over [vars]: inequalities and equalities with
    coefficients in [-4, 4] (so equalities without a unit coefficient
    occur), and now and then a constant constraint, which may be a
    contradiction. *)
let gen_system vars : (Lia.lin list * Lia.lin list) QCheck.Gen.t =
  let open QCheck.Gen in
  let lin =
    frequency
      [
        (1, map Lia.lin_const (int_range (-2) 2));
        ( 8,
          let* k = int_range (-4) 4 in
          let* cs =
            list_size (int_range 1 3) (pair (oneofl vars) (int_range (-4) 4))
          in
          return
            (List.fold_left
               (fun acc (x, c) ->
                 Lia.lin_add acc (Lia.lin_scale c (Lia.lin_var x)))
               (Lia.lin_const k) cs) );
      ]
  in
  pair (list_size (int_range 0 3) lin) (list_size (int_range 0 5) lin)

let prop_feasible_split =
  QCheck.Test.make ~name:"feasible splits over variable-disjoint systems"
    ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair
           (gen_system [ "a0"; "a1"; "a2" ])
           (gen_system [ "b0"; "b1"; "b2" ])))
    (fun ((ae, ai), (be, bi)) ->
      Lia.feasible ~eqs:(ae @ be) ~ineqs:(ai @ bi)
      = (Lia.feasible ~eqs:ae ~ineqs:ai && Lia.feasible ~eqs:be ~ineqs:bi))

(* ------------------------------------------------------------------ *)
(* Lia: multiset Fourier–Motzkin against the list procedure            *)
(* ------------------------------------------------------------------ *)

(** The reference for [Lia.fm]: the elimination on the plain row list,
    every copy of every row held and combined. Returns its verdict and
    the number of rows its rounds built. *)
let list_fm (rows : Lia.lin list) : bool * int =
  let built = ref 0 in
  let choose_var (cs : Lia.lin list) : string option =
    let tally = Hashtbl.create 16 in
    List.iter
      (fun (c : Lia.lin) ->
        Lia.SMap.iter
          (fun x k ->
            let p, n = try Hashtbl.find tally x with Not_found -> (0, 0) in
            if k > 0 then Hashtbl.replace tally x (p + 1, n)
            else Hashtbl.replace tally x (p, n + 1))
          c.coeffs)
      cs;
    Hashtbl.fold
      (fun x (p, n) best ->
        let cost = p * n in
        match best with
        | Some (_, bcost) when bcost <= cost -> best
        | _ -> Some (x, cost))
      tally None
    |> Option.map fst
  in
  let rec fm (cs : Lia.lin list) =
    let cs = List.filter_map Lia.tighten cs in
    if List.length cs > Lia.fm_limit then true
    else
      match choose_var cs with
      | None -> true
      | Some x ->
          let pos, neg, rest =
            List.fold_left
              (fun (p, n, r) (c : Lia.lin) ->
                match Lia.SMap.find_opt x c.coeffs with
                | Some k when k > 0 -> (c :: p, n, r)
                | Some _ -> (p, c :: n, r)
                | None -> (p, n, c :: r))
              ([], [], []) cs
          in
          let combined =
            List.concat_map
              (fun (cp : Lia.lin) ->
                let a = Lia.SMap.find x cp.coeffs in
                List.map
                  (fun (cn : Lia.lin) ->
                    let b = -Lia.SMap.find x cn.coeffs in
                    Lia.lin_add (Lia.lin_scale b cp) (Lia.lin_scale a cn))
                  neg)
              pos
          in
          built := !built + List.length combined;
          fm (combined @ rest)
  in
  let verdict = try fm rows with Lia.Infeasible -> false in
  (verdict, !built)

(** A theory call's verdict with its [lia.fm_rows] and
    [lia.fm_row_copies] deltas. *)
let theory_counts f =
  let rows0 = Profile.count "lia.fm_rows"
  and copies0 = Profile.count "lia.fm_row_copies" in
  let verdict = f () in
  ( verdict,
    Profile.count "lia.fm_rows" - rows0,
    Profile.count "lia.fm_row_copies" - copies0 )

(** [Lia.fm]'s verdict, with the pairs it built and the row copies it
    accounted for (its two profile counters). *)
let multiset_fm (rows : Lia.lin list) : bool * int * int =
  theory_counts (fun () -> try Lia.fm rows with Lia.Infeasible -> false)

(** Same verdict, and the row copies the list procedure built are the
    ones [Lia.fm] accounted for, round by round: a different variable
    choice or size-limit decision would almost surely change that
    count. [Lia.fm] never builds more rows than the copies. *)
let fm_agrees rows =
  let verdict, built = list_fm rows in
  let verdict', pairs, copies = multiset_fm rows in
  verdict = verdict' && built = copies && pairs <= copies

let lin_of (k, cs) =
  List.fold_left
    (fun acc (x, c) -> Lia.lin_add acc (Lia.lin_scale c (Lia.lin_var x)))
    (Lia.lin_const k) cs

(** Systems drawn from a small pool of rows, each row repeated many
    times — the shape of a weakening hypothesis. Rows come with their
    mirror image now and then (so variables tie on cost), constant rows
    occur, and equalities often lack a unit coefficient (so they are
    split into two inequalities). *)
let gen_pooled_system : (Lia.lin list * Lia.lin list) QCheck.Gen.t =
  let open QCheck.Gen in
  let vars = [ "a"; "b"; "c"; "d" ] in
  let form coeffs =
    let* k = int_range (-3) 3 in
    let* cs = list_size (int_range 1 3) (pair (oneofl vars) (oneofl coeffs)) in
    return (lin_of (k, cs))
  in
  let row =
    frequency
      [
        (1, map Lia.lin_const (int_range (-2) 1));
        (12, form [ -3; -2; -1; 1; 1; 2; 3 ]);
      ]
  in
  let mirrored =
    let* r = row in
    let* k = int_range (-2) 2 in
    frequency
      [
        (2, return [ r ]);
        (1, return [ r; { (Lia.lin_scale (-1) r) with const = k } ]);
      ]
  in
  let* pool = map List.concat (list_size (int_range 1 4) mirrored) in
  let pool = Array.of_list pool in
  let* ineqs =
    list_size (int_range 1 48)
      (map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)))
  in
  let* eq_pool = list_size (int_range 1 2) (form [ -4; -2; 2; 3; 1 ]) in
  let eq_pool = Array.of_list eq_pool in
  let* eqs =
    list_size (int_range 0 3)
      (map (fun i -> eq_pool.(i)) (int_bound (Array.length eq_pool - 1)))
  in
  return (eqs, ineqs)

let prop_fm_multiset =
  QCheck.Test.make ~name:"multiset FM takes the list procedure's decisions"
    ~count:1000
    (QCheck.make gen_pooled_system)
    (fun (eqs, ineqs) ->
      match Lia.elim_eqs eqs ineqs with
      | rows -> fm_agrees rows
      | exception Lia.Infeasible -> true)

(* ------------------------------------------------------------------ *)
(* Lia: composed Phase 1 against the sequential substitution           *)
(* ------------------------------------------------------------------ *)

(** The reference for [Lia.elim_eqs]: each solved equality substituted
    into every remaining equality and inequality in turn, and the two
    rows of a split equality prepended to the inequalities, where later
    substitutions reach them. *)
let rec list_elim_eqs (eqs : Lia.lin list) (ineqs : Lia.lin list) :
    Lia.lin list =
  let subst x (rhs : Lia.lin) (a : Lia.lin) =
    match Lia.SMap.find_opt x a.coeffs with
    | None -> a
    | Some c ->
        Lia.lin_add
          { a with coeffs = Lia.SMap.remove x a.coeffs }
          (Lia.lin_scale c rhs)
  in
  match eqs with
  | [] -> ineqs
  | e :: rest -> (
      if Lia.lin_is_const e then
        if e.const <> 0 then raise Lia.Infeasible else list_elim_eqs rest ineqs
      else
        let unit =
          Lia.SMap.fold
            (fun x c acc ->
              match acc with
              | None when c = 1 || c = -1 -> Some (x, c)
              | _ -> acc)
            e.coeffs None
        in
        match unit with
        | Some (x, c) ->
            let rhs =
              Lia.lin_scale (-c) { e with coeffs = Lia.SMap.remove x e.coeffs }
            in
            let sub = subst x rhs in
            list_elim_eqs (List.map sub rest) (List.map sub ineqs)
        | None ->
            let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
            let g = Lia.SMap.fold (fun _ c acc -> gcd c acc) e.coeffs 0 in
            if g > 1 && e.const mod g <> 0 then raise Lia.Infeasible
            else list_elim_eqs rest (e :: Lia.lin_scale (-1) e :: ineqs))

(** Rows equal by bindings, in the same order. *)
let same_rows =
  List.equal (fun (a : Lia.lin) (b : Lia.lin) ->
      a.const = b.const && Lia.SMap.equal Int.equal a.coeffs b.coeffs)

let pp_rows =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
    Lia.pp_lin

(** Equalities over [vars] of every shape Phase 1 treats apart:
    constants (mostly [0 = 0], now and then false), unit equalities,
    equalities without a unit coefficient (split, unless a substitution
    gives them one), chains [x_i = x_(i+1) + k] that later equalities
    substitute through, and even-coefficient equalities with an odd
    constant (gcd-infeasible unless a substitution rescues them). *)
let gen_equality vars : Lia.lin QCheck.Gen.t =
  let open QCheck.Gen in
  let form ks coeffs =
    let* k = ks in
    let* cs = list_size (int_range 1 3) (pair (oneofl vars) (oneofl coeffs)) in
    return (lin_of (k, cs))
  in
  let chain =
    let* i = int_bound (List.length vars - 2) in
    let* k = int_range (-2) 2 in
    let* c = oneofl [ 1; -1; 2 ] in
    return (lin_of (k, [ (List.nth vars i, c); (List.nth vars (i + 1), -1) ]))
  in
  frequency
    [
      (1, map Lia.lin_const (oneofl [ 0; 0; 0; 1; -2 ]));
      (3, form (int_range (-3) 3) [ -1; 1; 2; -3 ]);
      (2, form (int_range (-3) 3) [ 2; -2; 3; 4; -4 ]);
      (3, chain);
      (1, form (oneofl [ -1; 1; 3 ]) [ 2; -2; 4 ]);
    ]

let gen_inequality vars : Lia.lin QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (1, map Lia.lin_const (int_range (-2) 1));
      ( 8,
        let* k = int_range (-3) 3 in
        let* cs =
          list_size (int_range 1 3)
            (pair (oneofl vars) (oneofl [ -3; -2; -1; 1; 2; 3 ]))
        in
        return (lin_of (k, cs)) );
    ]

let prop_elim_eqs_reference =
  let vars = [ "a"; "b"; "c"; "d"; "e" ] in
  QCheck.Test.make
    ~name:"composed Phase 1 gives the sequential rows, in order" ~count:2000
    (QCheck.make
       ~print:(fun (eqs, ineqs) ->
         Format.asprintf "eqs [%a] ineqs [%a]" pp_rows eqs pp_rows ineqs)
       QCheck.Gen.(
         pair
           (list_size (int_range 0 6) (gen_equality vars))
           (list_size (int_range 0 8) (gen_inequality vars))))
    (fun (eqs, ineqs) ->
      let run f = match f () with r -> Some r | exception Lia.Infeasible -> None in
      Option.equal same_rows
        (run (fun () -> list_elim_eqs eqs ineqs))
        (run (fun () -> Lia.elim_eqs eqs ineqs)))

(** Fixed systems: two splits that later equalities substitute into
    (the later split's rows come first), a substitution chain, a
    contradiction a chain exposes, and a gcd-infeasible equality. *)
let elim_eqs_cases () =
  let l k cs = lin_of (k, cs) in
  List.iter
    (fun (what, eqs, ineqs, expected) ->
      let run f =
        match f () with
        | r -> Format.asprintf "%a" pp_rows r
        | exception Lia.Infeasible -> "infeasible"
      in
      Alcotest.(check string)
        (what ^ ": reference") expected
        (run (fun () -> list_elim_eqs eqs ineqs));
      Alcotest.(check string)
        (what ^ ": composed") expected
        (run (fun () -> Lia.elim_eqs eqs ineqs)))
    [
      ( "two splits, then substitutions",
        [
          l (-1) [ ("a", 2); ("b", 3) ];
          l 0 [ ("b", 2); ("c", 4); ("d", 3) ];
          l 0 [ ("a", 1); ("e", -1) ];
          l 1 [ ("b", 1); ("c", -1) ];
        ],
        [ l 0 [ ("a", 1); ("b", 1) ]; l (-5) [ ("c", 1) ] ],
        "6*c + 3*d - 2; -6*c - 3*d + 2; 3*c + 2*e - 4; -3*c - 2*e + 4; c + e \
         - 1; c - 5" );
      ( "a chain",
        [ l 1 [ ("a", 1); ("b", -1) ]; l 2 [ ("b", 1); ("c", -1) ];
          l 0 [ ("c", 1); ("d", -1) ] ],
        [ l 0 [ ("a", 1); ("d", -2) ] ],
        "-1*d - 3" );
      ( "a chain closing on a contradiction",
        [ l 1 [ ("a", 1); ("b", -1) ]; l 0 [ ("b", 1); ("c", -1) ];
          l 0 [ ("a", 1); ("c", -1) ] ],
        [ l 0 [ ("a", 1) ] ],
        "infeasible" );
      ("gcd-infeasible", [ l 1 [ ("a", 2); ("b", 4) ] ], [], "infeasible");
    ]

(** [n] variable names that the 16-bucket tally of [Lia.choose_var]
    keeps in one bucket, where it meets them in the order they first
    occur in the rows: a tie then depends on the row order, so a row
    out of place shows in the FM counts. *)
let one_bucket_names n =
  let bucket x = Hashtbl.hash x land 15 in
  Seq.ints 0
  |> Seq.map (Printf.sprintf "v%d")
  |> Seq.filter (fun x -> bucket x = bucket "v0")
  |> Seq.take n |> Array.of_seq

(** Literal systems of up to three variable-disjoint groups, each with
    equalities as {!gen_equality} draws them (now and then a
    contradictory pair), inequalities and disequalities, shuffled
    together; and goals over no group, one, two or three, with or
    without a fresh variable, of each literal kind. *)
let gen_context_case : (Lia.literal list * Lia.literal option list) QCheck.Gen.t
    =
  let open QCheck.Gen in
  let v = one_bucket_names 10 in
  let groups =
    [ [ v.(0); v.(1); v.(2) ]; [ v.(3); v.(4); v.(5) ]; [ v.(6); v.(7) ] ]
  in
  let group vars =
    let* eqs = list_size (int_range 0 3) (gen_equality vars) in
    let* contra =
      frequency
        [
          (6, return []);
          ( 1,
            let* e = gen_equality vars in
            return [ e; { e with const = e.const + 1 } ] );
        ]
    in
    let* ineqs = list_size (int_range 0 5) (gen_inequality vars) in
    let* diseqs = list_size (int_range 0 1) (gen_inequality vars) in
    return
      (List.map (fun e -> Lia.Eq0 e) (eqs @ contra)
      @ List.map (fun l -> Lia.Le0 l) ineqs
      @ List.map (fun l -> Lia.Ne0 l) diseqs)
  in
  let* ls = map List.concat (flatten_l (List.map group groups)) in
  let* ls = shuffle_l ls in
  let goal =
    let* touched = oneofl [ 0; 1; 1; 1; 2; 2; 3 ] in
    let* gs = shuffle_l groups in
    let* fresh = oneofl [ []; []; [ v.(8) ]; [ v.(8); v.(9) ] ] in
    let* picked =
      flatten_l (List.map oneofl (List.filteri (fun i _ -> i < touched) gs))
    in
    let vars = picked @ fresh in
    let* form =
      match vars with
      | [] -> map Lia.lin_const (int_range (-1) 1)
      | _ ->
          let* k = int_range (-2) 2 in
          let* cs =
            flatten_l
              (List.map
                 (fun x -> map (fun c -> (x, c)) (oneofl [ -2; -1; 1; 2 ]))
                 vars)
          in
          return (lin_of (k, cs))
    in
    frequency
      [
        (1, return None);
        (6, return (Some (Lia.Le0 form)));
        (2, return (Some (Lia.Eq0 form)));
        (2, return (Some (Lia.Ne0 form)));
      ]
  in
  let* goals = list_size (int_range 1 4) goal in
  return (ls, goals)

let prop_context_reference =
  QCheck.Test.make
    ~name:"sat_with on a context decides as sat_literals, with its FM rows"
    ~count:10000
    (QCheck.make
       ~print:(fun (ls, goals) ->
         let pp_goal fmt = function
           | None -> Format.pp_print_string fmt "none"
           | Some l -> Lia.pp_literal fmt l
         in
         Format.asprintf "[%a] goals [%a]"
           (Format.pp_print_list ~pp_sep:Format.pp_print_space Lia.pp_literal)
           ls
           (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_goal)
           goals)
       gen_context_case)
    (fun (ls, goals) ->
      let c = Lia.context ls in
      List.for_all
        (fun g ->
          theory_counts (fun () -> Lia.sat_with c g)
          = theory_counts (fun () -> Lia.sat_literals (ls @ Option.to_list g)))
        goals)

(** Which path decides the merged component: a goal joining one
    component, or none, takes the component's Phase 1; one merging two
    components, or an equality, eliminates anew. A component whose
    equalities contradict each other refutes every goal. *)
let context_phase1_cases () =
  let l k cs = lin_of (k, cs) in
  let ls =
    [
      Lia.Eq0 (l 0 [ ("a", 1); ("b", -1) ]);
      Lia.Le0 (l (-3) [ ("a", 1) ]);
      Lia.Le0 (l 0 [ ("c", -1) ]);
    ]
  in
  let agrees what ls g =
    let c = Lia.context ls in
    let got = Lia.sat_with c g in
    Alcotest.(check bool)
      (what ^ ": as sat_literals")
      (Lia.sat_literals (ls @ Option.to_list g))
      got;
    got
  in
  List.iter
    (fun (what, g, expected, prepared, rebuilt) ->
      let p0 = Profile.count "lia.phase1_prepared"
      and r0 = Profile.count "lia.phase1_rebuilt" in
      let got = agrees what ls g in
      Alcotest.(check (triple bool int int))
        (what ^ ": verdict, prepared, rebuilt")
        (expected, prepared, rebuilt)
        ( got,
          Profile.count "lia.phase1_prepared" - p0,
          Profile.count "lia.phase1_rebuilt" - r0 ))
    [
      ("no goal", None, true, 0, 0);
      ("goal refuted through a = b", Some (Lia.Le0 (l 4 [ ("b", -1) ])), false, 1, 0);
      ("goal on a = b", Some (Lia.Le0 (l 3 [ ("b", -1) ])), true, 1, 0);
      ("goal and a fresh variable", Some (Lia.Le0 (l 0 [ ("b", 1); ("z", 1) ])), true, 1, 0);
      ("goal on a fresh variable", Some (Lia.Le0 (l 0 [ ("z", 1) ])), true, 1, 0);
      ("goal merging two components", Some (Lia.Le0 (l 0 [ ("b", 1); ("c", 1) ])), true, 0, 1);
      ("equality goal", Some (Lia.Eq0 (l 0 [ ("c", 1) ])), true, 0, 1);
    ];
  let ls =
    ls
    @ [ Lia.Eq0 (l 0 [ ("x", 1); ("y", -1) ]); Lia.Eq0 (l 1 [ ("x", 1); ("y", -1) ]) ]
  in
  List.iter
    (fun (what, g) ->
      Alcotest.(check bool) (what ^ ": refuted") false (agrees what ls g))
    [
      ("contradictory component, no goal", None);
      ("contradictory component, goal on a", Some (Lia.Le0 (l 3 [ ("b", -1) ])));
      ("contradictory component, goal on it", Some (Lia.Le0 (l 0 [ ("x", 1) ])));
      ("contradictory component, fresh goal", Some (Lia.Le0 (l 0 [ ("z", 1) ])));
    ]

(** At [fm_limit], counted over row copies. [m·(a+1 ≤ 0) ∧ n·(−a ≤ 0)]
    is refuted while [m + n] copies fit and given up on ("maybe SAT")
    past them. [p·(a−b ≤ 0) ∧ r·(b+1 ≤ 0) ∧ q·(−a ≤ 0)] eliminates [b]
    first into [p·r] copies of one row, [a+1 ≤ 0]: with [p·r + q]
    copies past the limit the second round gives up, though the system
    is infeasible. *)
let fm_limit_case () =
  let copies k row = List.init k (fun _ -> lin_of row) in
  let one_var m n = copies m (1, [ ("a", 1) ]) @ copies n (0, [ ("a", -1) ]) in
  let two_vars p r q =
    copies p (0, [ ("a", 1); ("b", -1) ])
    @ copies r (1, [ ("b", 1) ])
    @ copies q (0, [ ("a", -1) ])
  in
  List.iter
    (fun (what, rows, expected, expected_copies) ->
      Alcotest.(check bool) (what ^ ": agrees") true (fm_agrees rows);
      let verdict, _, built = multiset_fm rows in
      Alcotest.(check (pair bool int))
        (what ^ ": verdict, row copies")
        (expected, expected_copies) (verdict, built))
    [
      ("1 + 19999 rows", one_var 1 19_999, false, 19_999);
      ("1 + 20000 rows", one_var 1 20_000, true, 0);
      ("20, 10, 11 copies", two_vars 20 10 11, false, 200 + 2200);
      ("150, 134, 135 copies", two_vars 150 134 135, true, 20_100);
    ]

(** One component of an RMat weakening query, as Phase 1 leaves it:
    138 inequalities over 4 variables (8 before the equalities are
    substituted away), only 24 of them distinct. The list procedure
    builds ~89,000 rows to refute it. [rmat_rows] are the distinct
    rows, [rmat_order] the list as indices into them. *)
let rmat_rows =
  [|
    (-1, [ ("v!16", 1); ("v!18", -2) ]);
    (0, []);
    (1, [ ("v!15", -1) ]);
    (0, [ ("v!18", -1) ]);
    (0, [ ("v!20", -1) ]);
    (0, [ ("v!16", 1); ("v!20", -1) ]);
    (0, [ ("v!16", -1) ]);
    (0, [ ("v!16", -1); ("v!18", 1); ("v!20", 1) ]);
    (-1, []);
    (-1, [ ("v!16", -1); ("v!20", 1) ]);
    (0, [ ("v!16", -1); ("v!20", 1) ]);
    (0, [ ("v!16", -1); ("v!18", 2) ]);
    (0, [ ("v!15", -1); ("v!18", 2) ]);
    (1, [ ("v!16", -1); ("v!18", 1) ]);
    (1, [ ("v!15", -1); ("v!18", 1) ]);
    (-1, [ ("v!18", 1); ("v!20", -1) ]);
    (-1, [ ("v!16", -1); ("v!18", 1) ]);
    (-1, [ ("v!15", -1); ("v!18", 1) ]);
    (0, [ ("v!16", -1); ("v!18", 1) ]);
    (0, [ ("v!15", -1); ("v!18", 1) ]);
    (-1, [ ("v!18", 1) ]);
    (1, [ ("v!16", -1) ]);
    (0, [ ("v!15", -1) ]);
    (2, [ ("v!16", -1) ]);
  |]

let rmat_order =
  [
    0; 1; 1; 2; 3; 4; 3; 5; 6; 4; 7; 7; 7; 7; 8; 9; 9; 1; 10; 10; 1; 1; 10;
    10; 7; 7; 7; 7; 8; 9; 9; 1; 10; 10; 1; 1; 10; 10; 7; 7; 7; 7; 11; 12; 11;
    12; 11; 12; 11; 12; 13; 14; 13; 14; 15; 15; 8; 16; 17; 16; 17; 1; 18; 19;
    18; 19; 20; 1; 13; 14; 13; 14; 1; 18; 19; 18; 19; 7; 7; 7; 7; 11; 12; 11;
    12; 11; 12; 11; 12; 13; 14; 13; 14; 15; 15; 8; 16; 17; 16; 17; 1; 18; 19;
    18; 19; 20; 1; 13; 14; 13; 14; 1; 18; 19; 18; 19; 8; 1; 21; 21; 13; 13;
    10; 10; 18; 18; 1; 1; 22; 8; 1; 2; 2; 14; 14; 19; 19; 23;
  ]

let fm_rmat_case () =
  let rows = List.map (fun i -> lin_of rmat_rows.(i)) rmat_order in
  Alcotest.(check bool) "agrees" true (fm_agrees rows);
  let _, built = list_fm rows in
  let verdict, pairs, copies = multiset_fm rows in
  Alcotest.(check bool) "refuted" false verdict;
  Alcotest.(check bool) "the list procedure builds > 80k rows" true
    (built > 80_000);
  Alcotest.(check int) "copies accounted" built copies;
  Alcotest.(check bool)
    (Printf.sprintf "%d pairs built, under 1%% of the copies" pairs)
    true
    (pairs * 100 < copies)

(* ------------------------------------------------------------------ *)
(* Cone of influence: the integer worklist against the set worklist    *)
(* ------------------------------------------------------------------ *)

(** The reference for [Term.cone_slice]: the worklist on variable sets,
    pass by pass over every remaining hypothesis, returning the kept
    hypotheses latest first. *)
let cone_of_influence (hyps : (Term.t * Term.VarSet.t) list)
    (seed : Term.VarSet.t) : Term.t list =
  let seed = ref seed in
  let remaining = ref hyps in
  let kept = ref [] in
  let changed = ref true in
  while !changed do
    changed := false;
    remaining :=
      List.filter
        (fun (h, vs) ->
          if not (Term.VarSet.disjoint vs !seed) then begin
            kept := h :: !kept;
            seed := Term.VarSet.union vs !seed;
            changed := true;
            false
          end
          else true)
        !remaining
  done;
  !kept

(** [None] when [Term.cone_slice] keeps exactly [cone_of_influence]'s
    list, in its order, and [Term.mk_and_hashed] builds [mk_and] of it
    with its [Term.hash] — for the slice of [seed] and for the whole
    list; otherwise what differs. *)
let cone_mismatch (hyps : Term.t list) (seed : Term.VarSet.t) : string option
    =
  let c = Term.cone hyps in
  let hashes = Array.map Term.hash c.Term.c_hyps in
  let hashed ts ks =
    let t, h = Term.mk_and_hashed ts (List.map (Array.get hashes) ks) in
    let want = Term.mk_and ts in
    if not (Term.equal t want) then Some "mk_and_hashed term"
    else if h <> Term.hash want then Some "mk_and_hashed hash"
    else None
  in
  let ks = Term.cone_slice c seed in
  let got = Term.cone_terms c ks in
  let want =
    cone_of_influence (List.map (fun h -> (h, Term.free_vars h)) hyps) seed
  in
  if not (List.equal Term.equal got want) then
    Some
      (Format.asprintf "slice [%a], reference [%a]"
         (Format.pp_print_list Term.pp) got
         (Format.pp_print_list Term.pp) want)
  else
    match hashed got ks with
    | Some _ as m -> m
    | None -> hashed hyps (List.init (List.length hyps) Fun.id)

let cone_pool = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |]

(** Hypothesis lists over a small variable pool, so that they form a
    few components, with variable-free conjuncts ([Bool], raw and
    interned, and a nullary application), raw [And] conjuncts and
    repeats; seeds may name a variable no hypothesis has. *)
let gen_cone_case : (Term.t list * Term.VarSet.t) QCheck.Gen.t =
  let open QCheck.Gen in
  let v = map (fun i -> Term.var cone_pool.(i)) (int_bound 7) in
  let hyp =
    frequency
      [
        (6, map2 Term.le v v);
        (3, map3 (fun a b c -> Term.lt (Term.add a b) c) v v v);
        (2, map (fun a -> Term.le a (Term.int 0)) v);
        ( 1,
          oneofl
            [ Term.tt; Term.ff; Term.Bool true; Term.Bool false; Term.app "k" [] ]
        );
        (1, map2 (fun a b -> Term.And [ Term.le a b; Term.lt b a ]) v v);
      ]
  in
  let* hyps = list_size (int_range 0 14) hyp in
  let* seed =
    list_size (int_range 1 3)
      (oneofl ("absent" :: Array.to_list cone_pool))
  in
  return (hyps, Term.VarSet.of_list seed)

let prop_cone_reference =
  QCheck.Test.make
    ~name:"integer cone keeps the set worklist's slice, order and hash"
    ~count:2000
    (QCheck.make gen_cone_case
       ~print:(fun (hyps, seed) ->
         Format.asprintf "[%a] seed {%s}"
           (Format.pp_print_list Term.pp) hyps
           (String.concat ", " (Term.VarSet.elements seed))))
    (fun (hyps, seed) ->
      match cone_mismatch hyps seed with
      | None -> true
      | Some m -> QCheck.Test.fail_report m)

(** Fixed cases: the order is that of the passes (a hypothesis reached
    only through a later one waits for the next pass), one conjunct,
    an absent seed and a variable-free list. *)
let cone_cases () =
  let a = Term.var "a" and b = Term.var "b" and c = Term.var "c" in
  let d = Term.var "d" in
  let hyps = Term.[ le c d; le b c; le a b; le d (int 0); tt ] in
  let c' = Term.cone hyps in
  let slice seed = Term.cone_slice c' (Term.VarSet.of_list seed) in
  (* pass 1 keeps [a ≤ b], after [b ≤ c] was scanned; pass 2 keeps
     [b ≤ c]; pass 3 keeps [c ≤ d] and, later in the same pass,
     [d ≤ 0]; latest first *)
  Alcotest.(check (list int)) "chain seeded at its end" [ 3; 0; 1; 2 ] (slice [ "a" ]);
  Alcotest.(check (list int)) "absent seed" [] (slice [ "zz" ]);
  Alcotest.(check (list int)) "one conjunct" [ 0 ]
    (Term.cone_slice (Term.cone [ Term.le a b ]) (Term.VarSet.singleton "b"));
  Alcotest.(check (list int)) "variable-free list" []
    (Term.cone_slice (Term.cone Term.[ tt; ff ]) (Term.VarSet.singleton "a"));
  List.iter
    (fun seed ->
      match cone_mismatch hyps (Term.VarSet.of_list seed) with
      | None -> ()
      | Some m -> Alcotest.fail m)
    [ [ "a" ]; [ "d" ]; [ "b"; "zz" ]; [ "zz" ] ]

(** Fixed seed for the randomized properties: reproduce a failure by
    re-running with the same constant. *)
let qcheck_seed = 0x5eed2

let tests =
  ( "smt",
    unit_tests @ context_tests
    @ [ Alcotest.test_case "exhaustive div/mod vs truncated semantics" `Quick
          divmod_exhaustive ]
    @ List.map
        (QCheck_alcotest.to_alcotest
           ~rand:(Random.State.make [| qcheck_seed |]))
        [
          prop_validity_sound;
          prop_unsat_sound;
          prop_negation;
          prop_subst_ground;
          prop_feasible_split;
          prop_fm_multiset;
          prop_elim_eqs_reference;
          prop_context_reference;
        ]
    @ [
        Alcotest.test_case "multiset FM at the size limit" `Quick fm_limit_case;
        Alcotest.test_case "multiset FM on an RMat hypothesis" `Quick
          fm_rmat_case;
        Alcotest.test_case "composed Phase 1 on fixed systems" `Quick
          elim_eqs_cases;
        Alcotest.test_case "context: Phase 1 once per component" `Quick
          context_phase1_cases;
      ]
    @ prepared_context_tests @ division_context_tests
    @ [
        QCheck_alcotest.to_alcotest
          ~rand:(Random.State.make [| qcheck_seed |])
          prop_cone_reference;
        Alcotest.test_case "cone of influence: pass order and edge cases"
          `Quick cone_cases;
      ] )
