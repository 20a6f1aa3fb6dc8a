(** Certificate emission and independent replay.

    The important property is the {e meta}-soundness one: the replay
    checker must accept everything the honest solver certifies and
    reject every tampered or mutant certificate with a distinct error —
    never accept. *)

open Flux_smt
module Replay = Flux_cert.Replay

let v = Term.var
let x = v "x"
let y = v "y"
let z = v "z"

let error_kind = function
  | Replay.Bad_sexp _ -> "bad-sexp"
  | Replay.Bad_fresh _ -> "bad-fresh"
  | Replay.Bad_def _ -> "bad-def"
  | Replay.Skeleton_mismatch _ -> "skeleton-mismatch"
  | Replay.Bad_tree _ -> "bad-tree"
  | Replay.Bad_refutation _ -> "bad-refutation"
  | Replay.Goal_falsified _ -> "goal-falsified"

let result_str = function
  | Ok () -> "ok"
  | Error e -> error_kind e

let certify_exn name t =
  match Solver.certify t with
  | Some p -> p
  | None -> Alcotest.failf "%s: no certificate for a valid goal" name

(* valid goals exercising every elaboration feature a certificate can
   record: pure propositional, FM with tightening, equalities,
   disequality splits, div/mod linearization, ite naming, opaque
   products (commutativity), Ackermann congruence *)
let valid_pool =
  [
    ("excluded middle", Term.(mk_or [ le x y; gt x y ]));
    ("transitivity", Term.(mk_imp (mk_and [ lt x y; le y z ]) (lt x z)));
    ( "tightening",
      Term.(mk_imp (mk_and [ lt (int 0) x; lt x (int 2) ]) (eq x (int 1))) );
    ( "eq substitution",
      Term.(mk_imp (mk_and [ eq x y; lt y z ]) (lt x z)) );
    ( "diseq split",
      Term.(mk_imp (mk_and [ ne x y; ge x y ]) (gt x y)) );
    ( "div lower bound",
      Term.(mk_imp (ge x (int 0)) (ge (div x (int 2)) (int 0))) );
    ( "div strict bound",
      Term.(mk_imp (gt x (int 0)) (lt (div x (int 2)) x)) );
    ( "mod range",
      Term.(
        mk_imp (ge x (int 0))
          (mk_and [ ge (md x (int 3)) (int 0); lt (md x (int 3)) (int 3) ])) );
    ( "ite bound",
      Term.(
        mk_imp (le x y) (le x (ite (lt x y) y x))) );
    ( "product commutes",
      Term.(mk_eq (mul x y) (mul y x)) );
    ( "congruence",
      Term.(mk_imp (mk_eq x y) (mk_eq (app "f" [ x ]) (app "f" [ y ]))) );
    ( "unit propagation",
      Term.(
        mk_imp
          (mk_and [ mk_or [ lt x y; mk_eq x y ]; ge x y ])
          (mk_eq x y)) );
  ]

let roundtrip_tests =
  List.map
    (fun (name, t) ->
      Alcotest.test_case name `Quick (fun () ->
          let p = certify_exn name t in
          Alcotest.(check bool) "goal recorded" true (Term.equal p.Proof.goal t);
          Alcotest.(check string)
            "replay accepts" "ok"
            (result_str (Replay.check ~goal:t p));
          (* text round trip through the on-disk format *)
          Alcotest.(check string)
            "replay accepts after round trip" "ok"
            (result_str (Replay.check_string ~goal:t (Proof.to_string p)))))
    valid_pool

let invalid_pool =
  [
    ("open comparison", Term.(lt x y));
    ("wrong direction", Term.(mk_imp (lt x y) (lt y x)));
    ("bad div", Term.(mk_imp (gt x (int 0)) (gt (div x (int 2)) (int 0))));
  ]

let no_cert_tests =
  List.map
    (fun (name, t) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check bool)
            "no certificate for invalid goal" true
            (Solver.certify t = None)))
    invalid_pool

(* ------------------------------------------------------------------ *)
(* Tampering: every mutation must be rejected, each for its own reason *)
(* ------------------------------------------------------------------ *)

(** Negate the first Farkas multiplier in the tree (the classic way an
    unsound solver would "prove" the impossible). *)
let flip_multiplier (p : Proof.t) : Proof.t option =
  let hit = ref false in
  let step = function
    | Proof.Comb ((k, s) :: rest) when not !hit ->
        hit := true;
        Proof.Comb ((-k, s) :: rest)
    | s -> s
  in
  let rec trefut = function
    | Proof.Steps ss -> Proof.Steps (List.map step ss)
    | Proof.Dsplit (i, l, r) -> Proof.Dsplit (i, trefut l, trefut r)
  in
  let rec tree = function
    | Proof.Split (i, l, r) -> Proof.Split (i, tree l, tree r)
    | Proof.Unit (i, pol, t) -> Proof.Unit (i, pol, tree t)
    | Proof.BoolLeaf -> Proof.BoolLeaf
    | Proof.TheoryLeaf tr -> Proof.TheoryLeaf (trefut tr)
  in
  let t = tree p.Proof.tree in
  if !hit then Some { p with Proof.tree = t } else None

(** Every tree that flips one [Unit]'s polarity in [p]'s tree, or cuts
    the tree at a [Unit] with the assignment so far. *)
let unit_mutants (p : Proof.t) : (string * Proof.t) list =
  let rec go (t : Proof.tree) : (string * Proof.tree) list =
    match t with
    | Proof.Unit (i, pol, sub) ->
        (Printf.sprintf "unit %d flipped" i, Proof.Unit (i, not pol, sub))
        :: (Printf.sprintf "cut at unit %d" i, Proof.BoolLeaf)
        :: List.map (fun (w, s) -> (w, Proof.Unit (i, pol, s))) (go sub)
    | Proof.Split (i, l, r) ->
        List.map (fun (w, l) -> (w, Proof.Split (i, l, r))) (go l)
        @ List.map (fun (w, r) -> (w, Proof.Split (i, l, r))) (go r)
    | Proof.BoolLeaf | Proof.TheoryLeaf _ -> []
  in
  List.map (fun (w, tree) -> (w, { p with Proof.tree })) (go p.Proof.tree)

let transitivity = Term.(mk_imp (mk_and [ lt x y; le y z ]) (lt x z))
let divgoal = Term.(mk_imp (ge x (int 0)) (ge (div x (int 2)) (int 0)))

let tamper_tests =
  [
    Alcotest.test_case "corrupt sexp" `Quick (fun () ->
        Alcotest.(check string)
          "rejected" "bad-sexp"
          (result_str (Replay.check_string "((proof")));
    Alcotest.test_case "truncated sexp" `Quick (fun () ->
        let p = certify_exn "transitivity" transitivity in
        let s = Proof.to_string p in
        let s = String.sub s 0 (String.length s - 10) in
        Alcotest.(check string)
          "rejected" "bad-sexp"
          (result_str (Replay.check_string s)));
    Alcotest.test_case "flipped multiplier" `Quick (fun () ->
        let p = certify_exn "transitivity" transitivity in
        match flip_multiplier p with
        | None -> Alcotest.fail "expected a Farkas combination to tamper with"
        | Some p' ->
            Alcotest.(check string)
              "rejected" "bad-refutation"
              (result_str (Replay.check p')));
    Alcotest.test_case "dropped fresh fact" `Quick (fun () ->
        let p = certify_exn "div" divgoal in
        Alcotest.(check bool) "has fresh facts" true (p.Proof.fresh <> []);
        let p' = { p with Proof.fresh = List.tl p.Proof.fresh } in
        let r = Replay.check p' in
        Alcotest.(check bool)
          (Printf.sprintf "rejected (%s)" (result_str r))
          true
          (match r with
          | Error (Replay.Bad_def _ | Replay.Skeleton_mismatch _) -> true
          | _ -> false));
    Alcotest.test_case "dropped def" `Quick (fun () ->
        (* removing a def weakens the refuted conjunction: the tree may
           no longer close. The divisor range facts are load-bearing for
           this goal, so the refutation must break. *)
        let p = certify_exn "div" divgoal in
        Alcotest.(check bool) "has defs" true (List.length p.Proof.defs >= 2);
        let p' = { p with Proof.defs = List.tl p.Proof.defs } in
        Alcotest.(check bool)
          "not accepted" true
          (Replay.check p' <> Ok ()));
    Alcotest.test_case "swapped goal" `Quick (fun () ->
        let p = certify_exn "transitivity" transitivity in
        let bogus = Term.(lt x y) in
        let p' = { p with Proof.goal = bogus } in
        let r = Replay.check ~goal:bogus p' in
        Alcotest.(check bool)
          (Printf.sprintf "rejected (%s)" (result_str r))
          true
          (match r with
          | Error (Replay.Skeleton_mismatch _ | Replay.Goal_falsified _) ->
              true
          | _ -> false));
    Alcotest.test_case "unsound divmod mutant" `Quick (fun () ->
        (* a solver mutant using Euclidean instead of truncated division
           semantics would emit these defs; replay must refuse to accept
           facts the fresh story does not license *)
        let p = certify_exn "div" divgoal in
        let q =
          List.find_map
            (function Proof.Divmod (_, _, q) -> Some q | _ -> None)
            p.Proof.fresh
        in
        match q with
        | None -> Alcotest.fail "expected a divmod fresh fact"
        | Some q ->
            let qv = Term.var ~sort:Sort.Int q in
            let euclid = Term.(ge (sub x (mul (int 2) qv)) (int 0)) in
            let p' = { p with Proof.defs = euclid :: p.Proof.defs } in
            Alcotest.(check string)
              "rejected" "bad-def"
              (result_str (Replay.check p')));
    Alcotest.test_case "truncated tree" `Quick (fun () ->
        let p = certify_exn "transitivity" transitivity in
        let p' = { p with Proof.tree = Proof.BoolLeaf } in
        let r = Replay.check p' in
        Alcotest.(check bool)
          (Printf.sprintf "rejected (%s)" (result_str r))
          true
          (match r with Error (Replay.Bad_tree _) -> true | _ -> false));
    Alcotest.test_case "flipped or cut unit literals" `Quick (fun () ->
        (* replay decides each unit from the conjuncts its atom occurs
           in: a unit on its unforced side, or a path cut before the
           skeleton is false, must not close (the outcomes are those of
           simplifying the whole skeleton at every node) *)
        let mutants =
          List.concat_map
            (fun (name, t) ->
              List.map
                (fun (w, p) -> (name ^ ", " ^ w, p))
                (unit_mutants (certify_exn name t)))
            valid_pool
        in
        Alcotest.(check bool) "the pool's trees have units" true
          (List.length mutants > 10);
        (* in these two the unit's atom closes the path either way, so
           the flipped tree is still a refutation *)
        let both_sides = [ "congruence, unit 0 flipped"; "mod range, unit 0 flipped" ] in
        List.iter
          (fun (what, p) ->
            Alcotest.(check string) what
              (if List.mem what both_sides then "ok" else "bad-tree")
              (result_str (Replay.check p)))
          mutants);
    Alcotest.test_case "captured fresh name" `Quick (fun () ->
        let p = certify_exn "div" divgoal in
        let rename = function
          | Proof.Divmod (a, c, _) -> Proof.Divmod (a, c, "x")
          | f -> f
        in
        let p' = { p with Proof.fresh = List.map rename p.Proof.fresh } in
        let r = Replay.check p' in
        Alcotest.(check bool)
          (Printf.sprintf "rejected (%s)" (result_str r))
          true
          (match r with
          | Error (Replay.Bad_fresh _ | Replay.Skeleton_mismatch _) -> true
          | _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Models and counterexamples                                          *)
(* ------------------------------------------------------------------ *)

let eval_with env t =
  let lookup x =
    match List.assoc_opt x env with
    | Some v -> v
    | None -> Eval.VInt 0
  in
  Eval.eval_bool lookup t

let model_tests =
  [
    Alcotest.test_case "model satisfies" `Quick (fun () ->
        let t = Term.(mk_and [ lt x y; lt y z; gt x (int 10) ]) in
        match Solver.model t with
        | None -> Alcotest.fail "expected a model"
        | Some env ->
            Alcotest.(check bool) "model evaluates true" true (eval_with env t));
    Alcotest.test_case "counterexample falsifies" `Quick (fun () ->
        let t = Term.(mk_imp (ge x (int 0)) (ge (sub x (int 1)) (int 0))) in
        match Solver.counterexample t with
        | None -> Alcotest.fail "expected a counterexample"
        | Some env ->
            Alcotest.(check bool)
              "witness falsifies goal" false (eval_with env t));
    Alcotest.test_case "counterexample with divmod" `Quick (fun () ->
        let t = Term.(mk_imp (gt x (int 0)) (gt (div x (int 2)) (int 0))) in
        match Solver.counterexample t with
        | None -> Alcotest.fail "expected a counterexample"
        | Some env ->
            Alcotest.(check bool)
              "witness falsifies goal" false (eval_with env t));
    Alcotest.test_case "no counterexample for valid" `Quick (fun () ->
        let t = Term.(mk_imp (lt x y) (le x y)) in
        Alcotest.(check bool)
          "valid goal has no counterexample" true
          (Solver.counterexample t = None));
    Alcotest.test_case "no model for unsat" `Quick (fun () ->
        let t = Term.(mk_and [ lt x y; lt y x ]) in
        Alcotest.(check bool) "unsat has no model" true (Solver.model t = None));
  ]

(* ------------------------------------------------------------------ *)
(* The search and the printer against their previous forms             *)
(* ------------------------------------------------------------------ *)

(** [conj]'s NNF over [atoms], numbered as the certifying search
    numbers them. *)
let bform_of (atoms : Term.t array) (conj : Term.t) : Replay.bform =
  let ids = Replay.TermTbl.create 64 in
  Array.iteri
    (fun i a -> if not (Replay.TermTbl.mem ids a) then Replay.TermTbl.add ids a i)
    atoms;
  Replay.to_bform ids true conj

let rec first_lit = function
  | Replay.BLit (i, _) -> Some i
  | Replay.BAnd fs | Replay.BOr fs -> List.find_map first_lit fs
  | Replay.BTrue | Replay.BFalse -> None

(** The literals forced by the top-level conjunctive structure alone. *)
let unit_literals = function
  | Replay.BLit (i, pol) -> [ (i, pol) ]
  | Replay.BAnd fs ->
      List.filter_map
        (function Replay.BLit (i, pol) -> Some (i, pol) | _ -> None)
        fs
  | _ -> []

(** The certifying search before literals were forced through
    conjunctions: a unit only from a top-level literal, and every other
    literal a decision, each preceded by a theory check. Its trees are
    the ones certificates had before, so warm caches hold them. *)
let reference_search (atoms : Term.t array) (conj : Term.t) :
    Proof.tree option =
  let assign = Array.make (Array.length atoms) 0 in
  let theory_leaf () =
    Option.map
      (fun tr -> Proof.TheoryLeaf tr)
      (Solver.theory_refute atoms assign)
  in
  let rec go f =
    match Replay.simplify assign f with
    | Replay.BFalse -> Some Proof.BoolLeaf
    | Replay.BTrue -> theory_leaf ()
    | f' -> (
        match unit_literals f' with
        | (i, pol) :: _ ->
            assign.(i) <- (if pol then 1 else 2);
            let sub = go f' in
            assign.(i) <- 0;
            Option.map (fun t -> Proof.Unit (i, pol, t)) sub
        | [] -> (
            match theory_leaf () with
            | Some _ as leaf -> leaf
            | None -> (
                match first_lit f' with
                | None -> None
                | Some i -> (
                    assign.(i) <- 1;
                    let l = go f' in
                    assign.(i) <- 0;
                    match l with
                    | None -> None
                    | Some lt -> (
                        assign.(i) <- 2;
                        let r = go f' in
                        assign.(i) <- 0;
                        Option.map (fun rt -> Proof.Split (i, lt, rt)) r)))))
  in
  go (bform_of atoms conj)

(** The satisfiability search before literals were forced through
    conjunctions, for {!Solver.valid_by} and {!Solver.counterexample_by}:
    units only from the root's literal children, undone per decision
    level, and a theory step ({!Solver.theory_sat}) before every split
    and at every complete path, each counted in [checks]. Returns the
    assignment of the first consistent complete path, atoms ascending. *)
let reference_sat ?(checks = ref 0) (atoms : Term.t array) (conj : Term.t) :
    (int * bool) list option =
  let assign = Array.make (Array.length atoms) 0 in
  let consistent () =
    incr checks;
    Solver.theory_sat atoms assign
  in
  let found = ref None in
  let leaf () =
    consistent ()
    && begin
         let m = ref [] in
         Array.iteri (fun i v -> if v <> 0 then m := (i, v = 1) :: !m) assign;
         found := Some (List.rev !m);
         true
       end
  in
  (* [undo] records assignments made at this decision level *)
  let rec go f (undo : int list ref) =
    match Replay.simplify assign f with
    | Replay.BFalse -> false
    | Replay.BTrue -> leaf ()
    | f' -> (
        match unit_literals f' with
        | _ :: _ as forced ->
            let ok =
              List.for_all
                (fun (i, pol) ->
                  let v = if pol then 1 else 2 in
                  if assign.(i) = 0 then begin
                    assign.(i) <- v;
                    undo := i :: !undo;
                    true
                  end
                  else assign.(i) = v)
                forced
            in
            ok && go f' undo
        | [] -> (
            match first_lit f' with
            | None -> leaf ()
            | Some i ->
                consistent ()
                &&
                let try_value v =
                  assign.(i) <- v;
                  let undo' = ref [] in
                  let r = go f' undo' in
                  List.iter (fun j -> assign.(j) <- 0) !undo';
                  assign.(i) <- 0;
                  r
                in
                try_value 1 || try_value 2))
  in
  if go (bform_of atoms conj) (ref []) then !found else None

(* The s-expression printer certificates were written with before the
   direct printer: build the tree, then print it. *)

let rec pp_sexp buf = function
  | Proof.Atom a -> Buffer.add_string buf a
  | Proof.List xs ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ' ';
          pp_sexp buf x)
        xs;
      Buffer.add_char buf ')'

let sexps_to_string xs =
  let buf = Buffer.create 1024 in
  List.iter
    (fun x ->
      pp_sexp buf x;
      Buffer.add_char buf '\n')
    xs;
  Buffer.contents buf

let sexp_of_term =
  let open Proof in
  let rec go (t : Term.t) =
    let l tag xs = List (Atom tag :: xs) in
    match t with
    | Term.Var (x, s) -> l "var" [ Atom x; Atom (sort_to_atom s) ]
    | Term.Int n -> l "int" [ Atom (string_of_int n) ]
    | Term.Bool b -> l "bool" [ Atom (string_of_bool b) ]
    | Term.Real x -> l "real" [ Atom (string_of_float x) ]
    | Term.Binop (op, a, b) -> l (binop_tag op) [ go a; go b ]
    | Term.Neg a -> l "neg" [ go a ]
    | Term.Cmp (op, a, b) -> l (cmpop_tag op) [ go a; go b ]
    | Term.Eq (a, b) -> l "eq" [ go a; go b ]
    | Term.Ne (a, b) -> l "ne" [ go a; go b ]
    | Term.And ts -> l "and" (List.map go ts)
    | Term.Or ts -> l "or" (List.map go ts)
    | Term.Not a -> l "not" [ go a ]
    | Term.Imp (a, b) -> l "imp" [ go a; go b ]
    | Term.Iff (a, b) -> l "iff" [ go a; go b ]
    | Term.Ite (c, a, b) -> l "ite" [ go c; go a; go b ]
    | Term.App (f, ts) -> l "app" (Atom f :: List.map go ts)
  in
  go

let sexp_of_proof (p : Proof.t) : Proof.sexp =
  let open Proof in
  let int n = Atom (string_of_int n) and bool b = Atom (string_of_bool b) in
  let fresh = function
    | Divmod (a, c, q) -> List [ Atom "divmod"; sexp_of_term a; int c; Atom q ]
    | Opaque (key, v, s) ->
        List [ Atom "opaque"; sexp_of_term key; Atom v; Atom (sort_to_atom s) ]
    | IteV (c, a, b, v) ->
        List
          [ Atom "itev"; sexp_of_term c; sexp_of_term a; sexp_of_term b;
            Atom v ]
  in
  let src = function
    | Hyp (i, pol, dir) -> List [ Atom "hyp"; int i; bool pol; int dir ]
    | Step i -> List [ Atom "step"; int i ]
    | Dle i -> List [ Atom "dle"; int i ]
    | Dge i -> List [ Atom "dge"; int i ]
  in
  let step = function
    | Comb ks ->
        List (Atom "comb" :: List.map (fun (k, s) -> List [ int k; src s ]) ks)
    | Tight s -> List [ Atom "tight"; src s ]
  in
  let rec trefut = function
    | Steps ss -> List (Atom "steps" :: List.map step ss)
    | Dsplit (i, l, r) -> List [ Atom "dsplit"; int i; trefut l; trefut r ]
  in
  let rec tree = function
    | Split (i, l, r) -> List [ Atom "split"; int i; tree l; tree r ]
    | Unit (i, pol, sub) -> List [ Atom "unit"; int i; bool pol; tree sub ]
    | BoolLeaf -> List [ Atom "bfalse" ]
    | TheoryLeaf tr -> List [ Atom "theory"; trefut tr ]
  in
  List
    [
      Atom "proof";
      List [ Atom "goal"; sexp_of_term p.goal ];
      List (Atom "fresh" :: List.map fresh p.fresh);
      List [ Atom "skeleton"; sexp_of_term p.skeleton ];
      List (Atom "defs" :: List.map sexp_of_term p.defs);
      List (Atom "atoms" :: List.map sexp_of_term (Array.to_list p.atoms));
      List [ Atom "tree"; tree p.tree ];
    ]

let sexp_cert_to_string entries =
  sexps_to_string
    (List.map
       (fun (tag, p) ->
         Proof.List [ Proof.Atom "cert"; Proof.Atom (string_of_int tag);
                      sexp_of_proof p ])
       entries)

(** Every clause query of the program [src], under the solution the
    fixpoint solver finds for its function. *)
let clause_queries (src : string) : Term.t list =
  let module Solve = Flux_fixpoint.Solve in
  let prog = Flux_syntax.Parser.parse_program src in
  Flux_syntax.Typeck.check_program prog;
  let genv = Flux_check.Genv.build prog in
  List.concat_map
    (fun (fd : Flux_syntax.Ast.fn_def) ->
      match Flux_check.Genv.find_body genv fd.fn_name with
      | Some body when not fd.fn_trusted ->
          let module C = Flux_check.Checker in
          let pr = C.prepare genv fd body in
          if C.prepared_early pr then []
          else
            let kvars = C.prepared_kvars pr in
            let clauses = C.prepared_clauses pr in
            let sol =
              match Solve.solve_clauses_incremental ~kvars clauses with
              | Solve.Sat sol | Solve.Unsat (_, sol) -> sol
            in
            List.map (Solve.clause_query ~kvars sol) clauses
      | _ -> [])
    (Flux_syntax.Ast.program_fns prog)

(** Every clause query of the Table-1 programs and RMat. *)
let table1_goals : Term.t list Lazy.t =
  lazy
    (let module W = Flux_workloads.Workloads in
     List.concat_map clause_queries
       (List.map (fun b -> b.W.bm_flux) W.all @ [ W.rmat_flux ]))

(** Terms of the certificate fuzz oracle ([flux fuzz --oracle cert]). *)
let fuzz_goals n =
  let root = Flux_fuzz.Rng.make 42 in
  List.init n (fun case -> Flux_fuzz.Tgen.gen (Flux_fuzz.Rng.split root case))

let theory_checks f =
  Profile.reset ();
  let r = f () in
  let n =
    match List.assoc_opt "cert.theory_checks" (Profile.snapshot ()) with
    | Some (n, _, _) -> n
    | None -> 0
  in
  (r, n)

(** [certify] and the reference agree on whether [goal] has a
    certificate, and each certificate replays, printed and parsed too.
    Returns the theory checks each made. *)
let agree name goal =
  let p, n = theory_checks (fun () -> Solver.certify goal) in
  let r, n_ref =
    theory_checks (fun () -> Solver.certify_by reference_search goal)
  in
  if Option.is_some p <> Option.is_some r then
    Alcotest.failf "%s: certify %s, the reference %s" name
      (if p = None then "gives up" else "certifies")
      (if r = None then "gives up" else "certifies");
  List.iter
    (fun (who, c) ->
      Option.iter
        (fun c ->
          let ok = result_str (Replay.check ~goal c) in
          let ok_text =
            result_str (Replay.check_string ~goal (Proof.to_string c))
          in
          if ok <> "ok" || ok_text <> "ok" then
            Alcotest.failf "%s: %s's certificate does not replay (%s, %s)"
              name who ok ok_text)
        c)
    [ ("certify", p); ("the reference", r) ];
  (n, n_ref)

(** The literals reached from the root of a certificate's skeleton
    through conjunctions alone. *)
let forced_at_root (p : Proof.t) : (int * bool) list =
  let rec go = function
    | Replay.BLit (i, pol) -> [ (i, pol) ]
    | Replay.BAnd fs -> List.concat_map go fs
    | _ -> []
  in
  go (bform_of p.Proof.atoms (Term.mk_and (p.Proof.skeleton :: p.Proof.defs)))

(** The [Unit] literals from the root of [t] down to its first other
    node. *)
let rec root_units = function
  | Proof.Unit (i, pol, sub) -> (i, pol) :: root_units sub
  | _ -> []

(** The atoms [t] splits on. *)
let rec split_atoms = function
  | Proof.Split (i, l, r) -> (i :: split_atoms l) @ split_atoms r
  | Proof.Unit (_, _, sub) -> split_atoms sub
  | Proof.BoolLeaf | Proof.TheoryLeaf _ -> []

let nested_goal =
  Term.(
    mk_imp
      (mk_and [ ge x (int 0); mk_and [ le x (int 10); eq y x ] ])
      (ge (div y (int 2)) (int 0)))

let search_tests =
  [
    Alcotest.test_case "nested hypothesis literals are units" `Quick
      (fun () ->
        List.iter
          (fun (name, goal) ->
            let p = certify_exn name goal in
            let units = root_units p.Proof.tree in
            List.iter
              (fun l ->
                if not (List.mem l units) then
                  Alcotest.failf "%s: forced literal %d is not a root unit"
                    name (fst l))
              (forced_at_root p))
          (("nested", nested_goal) :: valid_pool);
        (* the hypothesis literals sit under two conjunctions: the
           reference decides them, the search never does *)
        let p = certify_exn "nested" nested_goal in
        let forced = List.map fst (forced_at_root p) in
        Alcotest.(check bool)
          "the hypothesis literals are forced" true
          (List.length forced >= 4);
        let decides_forced (t : Proof.tree) =
          List.exists (fun i -> List.mem i forced) (split_atoms t)
        in
        Alcotest.(check bool)
          "the search decides no forced literal" false
          (decides_forced p.Proof.tree);
        match Solver.certify_by reference_search nested_goal with
        | None -> Alcotest.fail "the reference gives up"
        | Some r ->
            Alcotest.(check bool)
              "the reference decides forced literals" true
              (decides_forced r.Proof.tree));
    Alcotest.test_case "certify agrees with the reference on fuzz terms"
      `Quick (fun () ->
        let n, n_ref =
          List.fold_left
            (fun (a, b) (i, goal) ->
              let n, n_ref = agree (Printf.sprintf "fuzz term %d" i) goal in
              (a + n, b + n_ref))
            (0, 0)
            (List.mapi (fun i t -> (i, t)) (fuzz_goals 1500))
        in
        Alcotest.(check bool)
          (Printf.sprintf "no more theory checks (%d vs %d)" n n_ref)
          true (n <= n_ref));
    Alcotest.test_case "certify agrees with the reference on Table 1" `Slow
      (fun () ->
        let goals = Lazy.force table1_goals in
        Alcotest.(check bool) "clauses found" true (List.length goals > 900);
        let n, n_ref =
          List.fold_left
            (fun (a, b) (i, goal) ->
              let n, n_ref = agree (Printf.sprintf "clause %d" i) goal in
              (a + n, b + n_ref))
            (0, 0)
            (List.mapi (fun i t -> (i, t)) goals)
        in
        (* one check per forced path, not one per hypothesis literal *)
        Alcotest.(check bool)
          (Printf.sprintf "a quarter of the theory checks (%d vs %d)" n n_ref)
          true (4 * n <= n_ref));
  ]

let printer_tests =
  [
    Alcotest.test_case "direct printer matches the s-expression printer"
      `Slow (fun () ->
        let goals =
          List.map snd valid_pool @ fuzz_goals 500 @ Lazy.force table1_goals
        in
        let certs =
          List.concat_map
            (fun goal ->
              List.filter_map Fun.id
                [ Solver.certify goal;
                  Solver.certify_by reference_search goal ])
            goals
        in
        Alcotest.(check bool) "certificates" true (List.length certs > 1000);
        List.iteri
          (fun i p ->
            let s = Proof.to_string p in
            Alcotest.(check string)
              (Printf.sprintf "certificate %d bytes" i)
              (sexps_to_string [ sexp_of_proof p ])
              s;
            let p' = Proof.of_string s in
            if p' <> p then
              Alcotest.failf "certificate %d does not parse back" i)
          certs;
        let entries = List.mapi (fun i p -> (i, p)) certs in
        let s = Proof.cert_to_string entries in
        Alcotest.(check string) "function certificate bytes"
          (sexp_cert_to_string entries) s;
        Alcotest.(check bool) "function certificate parses back" true
          (Proof.cert_of_string s = entries);
        (* the fuzz reproducer files print terms the same way *)
        List.iter
          (fun t ->
            Alcotest.(check string) "reproducer term bytes"
              (sexps_to_string [ sexp_of_term t ])
              (Flux_fuzz.Repro.term_to_string t))
          goals);
  ]

(* ------------------------------------------------------------------ *)
(* Concurrent writers of one file                                      *)
(* ------------------------------------------------------------------ *)

module Cert_store = Flux_cert.Store
module Cache = Flux_engine.Cache

(** Two domains [save] one file into a fresh directory 100 times each
    while a third domain [load]s it; [load] says whether what it read
    was whole ([Some true]), torn ([Some false]) or missing ([None]).
    Checks that no load was torn and that no temp file is left. The
    value saved is a few hundred kilobytes, so that writes take several
    system calls and interleave. *)
let no_torn_loads ~(save : string -> unit) ~(load : string -> bool option)
    () =
  let dir = Filename.temp_dir "flux-writers" "" in
  let writer () =
    for _ = 1 to 100 do
      save dir
    done
  in
  let stop = Atomic.make false in
  let reader () =
    let torn = ref 0 and loads = ref 0 in
    while not (Atomic.get stop) do
      incr loads;
      if load dir = Some false then incr torn
    done;
    (!torn, !loads)
  in
  let r = Domain.spawn reader in
  let w1 = Domain.spawn writer and w2 = Domain.spawn writer in
  Domain.join w1;
  Domain.join w2;
  Atomic.set stop true;
  let torn, loads = Domain.join r in
  let files = Array.to_list (Sys.readdir dir) in
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) files;
  Unix.rmdir dir;
  Alcotest.(check bool) "the reader ran" true (loads > 0);
  Alcotest.(check int) "torn loads" 0 torn;
  Alcotest.(check int) "files left" 1 (List.length files)

let store_tests =
  [
    Alcotest.test_case "two domains saving one certificate never tear it"
      `Quick (fun () ->
        let p = certify_exn "div" divgoal in
        let entries = List.init 400 (fun i -> (i, p)) in
        no_torn_loads
          ~save:(fun dir -> Cert_store.save dir "k" entries)
          ~load:(fun dir ->
            match Cert_store.load dir "k" with
            | Cert_store.Missing -> None
            | Cert_store.Loaded l -> Some (List.length l = 400)
            | Cert_store.Corrupt -> Some false)
          ());
    Alcotest.test_case "two domains writing one cache file never tear it"
      `Quick (fun () ->
        let v = List.init 20_000 (fun i -> string_of_int i) in
        (* once the file exists it is never removed: a failed read after
           the first good one is a torn file *)
        let seen = ref false in
        no_torn_loads
          ~save:(fun dir -> Cache.write_marshalled (Filename.concat dir "k") v)
          ~load:(fun dir ->
            match
              (Cache.read_marshalled (Filename.concat dir "k")
                : string list option)
            with
            | Some l ->
                seen := true;
                Some (List.length l = 20_000)
            | None -> if !seen then Some false else None)
          ());
  ]

(* ------------------------------------------------------------------ *)
(* The satisfiability search against its previous form                 *)
(* ------------------------------------------------------------------ *)

(** Terms of the solver fuzz oracle ([flux fuzz --oracle solver --seed
    1]). *)
let solver_fuzz_terms n =
  let root = Flux_fuzz.Rng.make 1 in
  List.init n (fun case -> Flux_fuzz.Tgen.gen (Flux_fuzz.Rng.split root case))

(** [f ()] and the [solver.theory_checks] it made. *)
let counting_checks f =
  let stats = Solver.stats () in
  let n0 = stats.Solver.theory_checks in
  let r = f () in
  (r, stats.Solver.theory_checks - n0)

(** [valid] and the reference search agree on every goal of [goals];
    returns the theory checks each made in all. *)
let valid_agrees name goals =
  List.fold_left
    (fun (n, n_ref) (i, goal) ->
      let r, k = counting_checks (fun () -> Solver.valid goal) in
      let checks = ref 0 in
      let r_ref = Solver.valid_by (reference_sat ~checks) goal in
      if r <> r_ref then
        Alcotest.failf "%s %d: valid %b, the reference %b on %s" name i r
          r_ref (Term.to_string goal);
      (n + k, n_ref + !checks))
    (0, 0)
    (List.mapi (fun i goal -> (i, goal)) goals)

(** [counterexample] and the reference search find a counterexample to
    the same goals of [goals], and with [same_model] the same one;
    returns how many had one. *)
let counterexamples_agree ~same_model name goals =
  List.fold_left
    (fun found (i, goal) ->
      let c = Solver.counterexample goal in
      let c_ref = Solver.counterexample_by reference_sat goal in
      if
        if same_model then c <> c_ref
        else Option.is_some c <> Option.is_some c_ref
      then
        Alcotest.failf "%s %d: the counterexamples differ on %s" name i
          (Term.to_string goal);
      if Option.is_some c then found + 1 else found)
    0
    (List.mapi (fun i goal -> (i, goal)) goals)

(** The clause queries of the off-by-one mutants in [test/golden] that
    [valid] rejects. *)
let mutant_failing_clauses =
  lazy
    (List.concat_map
       (fun (name, src) ->
         if Filename.check_suffix name "-mutant" then
           List.filter (fun q -> not (Solver.valid q)) (clause_queries src)
         else [])
       Test_golden.library_sources)

(** [l1 ∧ … ∧ ln ⇒ g1 ∧ g2] over the chain [x0 ≤ x1 ≤ … ≤ xn]. *)
let chain_goal n =
  let x i = Term.var (Printf.sprintf "x%d" i) in
  Term.(
    mk_imp
      (mk_and (List.init n (fun i -> le (x i) (x (i + 1)))))
      (mk_and [ le (x 0) (x n); lt (x 0) (add (x n) (int 1)) ]))

let sat_search_tests =
  [
    Alcotest.test_case "hypothesis literals cost O(1) theory checks" `Quick
      (fun () ->
        (* the goal's negation is a disjunction beside the hypothesis,
           so no literal sits at the root: forcing the n literals under
           the conjunctions leaves a check before the split on the goal
           and one on each side *)
        List.iter
          (fun n ->
            let r, k = counting_checks (fun () -> Solver.valid (chain_goal n)) in
            Alcotest.(check bool) (Printf.sprintf "n = %d: valid" n) true r;
            Alcotest.(check int) (Printf.sprintf "n = %d: theory checks" n) 3 k)
          [ 2; 10; 40 ]);
    Alcotest.test_case "valid agrees with the reference search on fuzz terms"
      `Quick (fun () ->
        let terms = solver_fuzz_terms 1000 in
        let n, n_ref =
          valid_agrees "solver fuzz term"
            (terms @ List.map Term.mk_not terms)
        in
        let n', n_ref' = valid_agrees "cert fuzz term" (fuzz_goals 500) in
        Alcotest.(check bool)
          (Printf.sprintf "no more theory checks (%d vs %d)" (n + n')
             (n_ref + n_ref'))
          true
          (n + n' <= n_ref + n_ref');
        (* a decision the old search made before a literal it forced
           later stays in its model, which then differs in value (2 of
           the first 5,000 terms): only whether there is one must agree *)
        Alcotest.(check bool) "some counterexamples" true
          (counterexamples_agree ~same_model:false "solver fuzz term" terms
          > 100));
    Alcotest.test_case "counterexamples agree with the reference on the mutants"
      `Slow (fun () ->
        let goals = Lazy.force mutant_failing_clauses in
        Alcotest.(check bool) "failing clauses found" true (goals <> []);
        Alcotest.(check int) "every failing clause has a counterexample"
          (List.length goals)
          (counterexamples_agree ~same_model:true "mutant clause" goals));
    Alcotest.test_case "valid agrees with the reference search on Table 1"
      `Slow (fun () ->
        let goals = Lazy.force table1_goals in
        Alcotest.(check bool) "clauses found" true (List.length goals > 900);
        let n, n_ref = valid_agrees "clause" goals in
        Alcotest.(check bool)
          (Printf.sprintf "no more theory checks (%d vs %d)" n n_ref)
          true (n <= n_ref));
    Alcotest.test_case "a propositional conflict keeps the units up to it"
      `Quick (fun () ->
        (* the goal's atom is numbered 0 and held first: the path
           closes once it is assigned, before [y] and [z] are *)
        let goal =
          Term.(
            mk_imp
              (mk_and [ ge x (int 0); ge y (int 0); ge z (int 0) ])
              (ge x (int 0)))
        in
        let p = certify_exn "conflict" goal in
        Alcotest.(check bool) "one unit over a propositional leaf" true
          (p.Proof.tree = Proof.Unit (0, true, Proof.BoolLeaf)));
  ]

let tests =
  ( "cert",
    roundtrip_tests @ no_cert_tests @ tamper_tests @ model_tests
    @ search_tests @ printer_tests @ store_tests @ sat_search_tests )
