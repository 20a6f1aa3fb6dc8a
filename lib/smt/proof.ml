(** Proof certificates for [Solver.valid] verdicts.

    A certificate records enough of the solver's work that a small,
    independent checker ({!Flux_cert.Replay}) can re-establish the
    verdict without re-running any search: the elaboration facts that
    introduced fresh variables (div/mod linearization, opaque
    abstraction, if-then-else naming), the boolean skeleton the DPLL
    search refuted, the case-split/unit-propagation tree, and — at each
    theory leaf — a Farkas-style nonnegative combination of the path
    hypotheses deriving [0 < 0].

    The types here are pure data plus an s-expression codec: a parser
    to an s-expression tree, decoders from it, and printers that write
    the text straight into a buffer. They depend only on {!Term} and
    {!Sort} so the replay checker shares no code with the solver; the
    fuzz reproducer files use the same parser and term codec. Steps
    deliberately do {e not} store the intermediate linear forms: replay
    recomputes every combination with its own arithmetic, so a tampered
    multiplier cannot be papered over by a tampered intermediate. *)

(* ------------------------------------------------------------------ *)
(* Certificate syntax                                                  *)
(* ------------------------------------------------------------------ *)

(** Elaboration facts that introduce fresh variables, in introduction
    order. Each later fact may mention variables introduced by earlier
    ones; the replay checker verifies this acyclicity, which is what
    makes "every model of the goal extends to the fresh variables"
    true. *)
type fresh =
  | Divmod of Term.t * int * string
      (** [Divmod (a, c, q)]: [q] names [a / c] for a positive constant
          [c]; the remainder is the derived term [a - c*q]. *)
  | Opaque of Term.t * string * Sort.t
      (** [Opaque (key, v, s)]: [v] abstracts the term [key] (nonlinear
          product, general div/mod, application, real atom). *)
  | IteV of Term.t * Term.t * Term.t * string
      (** [IteV (c, a, b, v)]: [v] names [if c then a else b]. *)

(** A hypothesis source inside a theory refutation. *)
type src =
  | Hyp of int * bool * int
      (** [Hyp (i, pol, dir)]: atom [i] assigned [pol] on the current
          DPLL path. [dir] is [+1] for the atom's literal as a [≤ 0]
          row; [-1] (equalities only) for its negation. *)
  | Step of int  (** the result of an earlier step in this leaf *)
  | Dle of int  (** [d ≤ -1] branch of the enclosing disequality split *)
  | Dge of int  (** [d ≥ 1] branch of the enclosing disequality split *)

(** One derivation step over linear rows [l ≤ 0]. *)
type step =
  | Comb of (int * src) list
      (** nonnegative linear combination: [Σ kᵢ·srcᵢ ≤ 0] *)
  | Tight of src
      (** integer gcd tightening: divide coefficients by their gcd and
          round the constant up *)

(** A refutation of the conjunction of the path's theory literals. *)
type trefut =
  | Steps of step list
      (** derivation ending in a constant row [k ≤ 0] with [k > 0] *)
  | Dsplit of int * trefut * trefut
      (** case split on a disequality atom (an [Eq] atom assigned
          false): left assumes [d ≤ -1], right [d ≥ 1] *)

(** The DPLL search tree over the boolean skeleton. *)
type tree =
  | Split of int * tree * tree  (** branch on atom: true / false *)
  | Unit of int * bool * tree
      (** a literal forced by the skeleton: under the path's assignment,
          the opposite value makes skeleton and defs simplify to
          [false] propositionally, so only this side needs a proof.
          The search emits one for each literal reached through
          conjunctions alone, however deep. *)
  | BoolLeaf  (** the skeleton simplifies to [false] propositionally *)
  | TheoryLeaf of trefut  (** the path's theory literals are infeasible *)

type t = {
  goal : Term.t;  (** the term claimed valid *)
  fresh : fresh list;  (** elaboration facts, in introduction order *)
  skeleton : Term.t;  (** the elaborated negated goal *)
  defs : Term.t list;  (** side conditions for the fresh variables *)
  atoms : Term.t array;  (** atom table for the boolean skeleton *)
  tree : tree;  (** refutation of [skeleton ∧ defs] *)
}

(* ------------------------------------------------------------------ *)
(* S-expressions (shared with the fuzz reproducer files)               *)
(* ------------------------------------------------------------------ *)

type sexp = Atom of string | List of sexp list

exception Parse_error of string

let parse_sexps (src : string) : sexp list =
  let n = String.length src in
  let i = ref 0 in
  let peek () = if !i < n then Some src.[!i] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr i;
        skip_ws ()
    | Some ';' ->
        while !i < n && src.[!i] <> '\n' do
          incr i
        done;
        skip_ws ()
    | _ -> ()
  in
  let atom () =
    let start = !i in
    while
      !i < n
      && match src.[!i] with
         | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> false
         | _ -> true
    do
      incr i
    done;
    if !i = start then raise (Parse_error "empty atom");
    Atom (String.sub src start (!i - start))
  in
  let rec sexp () =
    skip_ws ();
    match peek () with
    | Some '(' ->
        incr i;
        let rec items acc =
          skip_ws ();
          match peek () with
          | Some ')' ->
              incr i;
              List (List.rev acc)
          | None -> raise (Parse_error "unclosed '('")
          | _ -> items (sexp () :: acc)
        in
        items []
    | Some ')' -> raise (Parse_error "unexpected ')'")
    | None -> raise (Parse_error "unexpected end of input")
    | _ -> atom ()
  in
  let rec top acc =
    skip_ws ();
    if !i >= n then List.rev acc else top (sexp () :: acc)
  in
  top []

(* ------------------------------------------------------------------ *)
(* Term codec                                                          *)
(* ------------------------------------------------------------------ *)

let sort_to_atom = function
  | Sort.Int -> "int"
  | Sort.Bool -> "bool"
  | Sort.Loc -> "loc"
  | Sort.Real -> "real"

let sort_of_atom = function
  | "int" -> Sort.Int
  | "bool" -> Sort.Bool
  | "loc" -> Sort.Loc
  | "real" -> Sort.Real
  | s -> raise (Parse_error ("unknown sort " ^ s))

let binop_tag = function
  | Term.Add -> "add"
  | Term.Sub -> "sub"
  | Term.Mul -> "mul"
  | Term.Div -> "div"
  | Term.Mod -> "mod"

let cmpop_tag = function
  | Term.Lt -> "lt"
  | Term.Le -> "le"
  | Term.Gt -> "gt"
  | Term.Ge -> "ge"

(* The printers write each value straight into a buffer, as the text of
   the s-expression the decoders read: atoms separated by one space, no
   other whitespace. No s-expression tree is built on the way, so
   printing a large certificate allocates little beyond the buffer. *)

let open_tag buf tag =
  Buffer.add_char buf '(';
  Buffer.add_string buf tag

(** A space, then the atom [a]. *)
let add_atom buf a =
  Buffer.add_char buf ' ';
  Buffer.add_string buf a

(** A space, then the integer [n]. *)
let add_int buf n = add_atom buf (string_of_int n)

let close buf = Buffer.add_char buf ')'

(** A space, then [x] printed by [add]. *)
let add_arg buf add x =
  Buffer.add_char buf ' ';
  add buf x

(** [(tag x₁ … xₙ)], each [xᵢ] printed by [add]. *)
let add_node buf tag add xs =
  open_tag buf tag;
  List.iter (add_arg buf add) xs;
  close buf

let rec add_term buf (t : Term.t) =
  match t with
  | Term.Var (x, s) ->
      open_tag buf "var";
      add_atom buf x;
      add_atom buf (sort_to_atom s);
      close buf
  | Term.Int n ->
      open_tag buf "int";
      add_int buf n;
      close buf
  | Term.Bool b ->
      open_tag buf "bool";
      add_atom buf (string_of_bool b);
      close buf
  | Term.Real x ->
      open_tag buf "real";
      add_atom buf (string_of_float x);
      close buf
  | Term.Binop (op, a, b) -> add_node buf (binop_tag op) add_term [ a; b ]
  | Term.Neg a -> add_node buf "neg" add_term [ a ]
  | Term.Cmp (op, a, b) -> add_node buf (cmpop_tag op) add_term [ a; b ]
  | Term.Eq (a, b) -> add_node buf "eq" add_term [ a; b ]
  | Term.Ne (a, b) -> add_node buf "ne" add_term [ a; b ]
  | Term.And ts -> add_node buf "and" add_term ts
  | Term.Or ts -> add_node buf "or" add_term ts
  | Term.Not a -> add_node buf "not" add_term [ a ]
  | Term.Imp (a, b) -> add_node buf "imp" add_term [ a; b ]
  | Term.Iff (a, b) -> add_node buf "iff" add_term [ a; b ]
  | Term.Ite (c, a, b) -> add_node buf "ite" add_term [ c; a; b ]
  | Term.App (f, ts) ->
      open_tag buf "app";
      add_atom buf f;
      List.iter (add_arg buf add_term) ts;
      close buf

(* Decoding rebuilds with the smart constructors: on terms that were
   themselves built with the smart constructors (everything a
   certificate stores) this is the identity, so replay's [Term.equal]
   comparisons are meaningful across a round trip. *)
let rec term_of_sexp (s : sexp) : Term.t =
  match s with
  | List (Atom tag :: args) -> (
      let t1 () =
        match args with [ a ] -> term_of_sexp a | _ -> raise (Parse_error tag)
      in
      let t2 () =
        match args with
        | [ a; b ] -> (term_of_sexp a, term_of_sexp b)
        | _ -> raise (Parse_error tag)
      in
      match tag with
      | "var" -> (
          match args with
          | [ Atom x; Atom s ] -> Term.var ~sort:(sort_of_atom s) x
          | _ -> raise (Parse_error "var"))
      | "int" -> (
          match args with
          | [ Atom n ] -> Term.int (int_of_string n)
          | _ -> raise (Parse_error "int"))
      | "bool" -> (
          match args with
          | [ Atom b ] -> Term.bool (bool_of_string b)
          | _ -> raise (Parse_error "bool"))
      | "real" -> (
          match args with
          | [ Atom x ] -> Term.real (float_of_string x)
          | _ -> raise (Parse_error "real"))
      | "add" | "sub" | "mul" | "div" | "mod" ->
          let a, b = t2 () in
          let op =
            match tag with
            | "add" -> Term.Add
            | "sub" -> Term.Sub
            | "mul" -> Term.Mul
            | "div" -> Term.Div
            | _ -> Term.Mod
          in
          Term.mk_binop op a b
      | "neg" -> Term.neg (t1 ())
      | "lt" | "le" | "gt" | "ge" ->
          let a, b = t2 () in
          let op =
            match tag with
            | "lt" -> Term.Lt
            | "le" -> Term.Le
            | "gt" -> Term.Gt
            | _ -> Term.Ge
          in
          Term.mk_cmp op a b
      | "eq" ->
          let a, b = t2 () in
          Term.mk_eq a b
      | "ne" ->
          let a, b = t2 () in
          Term.mk_ne a b
      | "and" -> Term.mk_and (List.map term_of_sexp args)
      | "or" -> Term.mk_or (List.map term_of_sexp args)
      | "not" -> Term.mk_not (t1 ())
      | "imp" ->
          let a, b = t2 () in
          Term.mk_imp a b
      | "iff" ->
          let a, b = t2 () in
          Term.mk_iff a b
      | "ite" -> (
          match args with
          | [ c; a; b ] ->
              Term.ite (term_of_sexp c) (term_of_sexp a) (term_of_sexp b)
          | _ -> raise (Parse_error "ite"))
      | "app" -> (
          match args with
          | Atom f :: ts -> Term.app f (List.map term_of_sexp ts)
          | _ -> raise (Parse_error "app"))
      | _ -> raise (Parse_error ("unknown term tag " ^ tag)))
  | _ -> raise (Parse_error "expected (tag ...)")

(* ------------------------------------------------------------------ *)
(* Certificate codec                                                   *)
(* ------------------------------------------------------------------ *)

let int_of_atom = function
  | Atom a -> (
      match int_of_string_opt a with
      | Some n -> n
      | None -> raise (Parse_error ("expected integer, got " ^ a)))
  | List _ -> raise (Parse_error "expected integer atom")

let bool_of_atom = function
  | Atom "true" -> true
  | Atom "false" -> false
  | _ -> raise (Parse_error "expected boolean atom")

let add_fresh buf = function
  | Divmod (a, c, q) ->
      open_tag buf "divmod";
      add_arg buf add_term a;
      add_int buf c;
      add_atom buf q;
      close buf
  | Opaque (key, v, s) ->
      open_tag buf "opaque";
      add_arg buf add_term key;
      add_atom buf v;
      add_atom buf (sort_to_atom s);
      close buf
  | IteV (c, a, b, v) ->
      open_tag buf "itev";
      List.iter (add_arg buf add_term) [ c; a; b ];
      add_atom buf v;
      close buf

let add_src buf src =
  let indexed tag i =
    open_tag buf tag;
    add_int buf i;
    close buf
  in
  match src with
  | Hyp (i, pol, dir) ->
      open_tag buf "hyp";
      add_int buf i;
      add_atom buf (string_of_bool pol);
      add_int buf dir;
      close buf
  | Step i -> indexed "step" i
  | Dle i -> indexed "dle" i
  | Dge i -> indexed "dge" i

let add_step buf = function
  | Comb ks ->
      add_node buf "comb"
        (fun buf (k, s) ->
          Buffer.add_char buf '(';
          Buffer.add_string buf (string_of_int k);
          add_arg buf add_src s;
          close buf)
        ks
  | Tight s -> add_node buf "tight" add_src [ s ]

let rec add_trefut buf = function
  | Steps ss -> add_node buf "steps" add_step ss
  | Dsplit (i, l, r) ->
      open_tag buf "dsplit";
      add_int buf i;
      List.iter (add_arg buf add_trefut) [ l; r ];
      close buf

let rec add_tree buf = function
  | Split (i, l, r) ->
      open_tag buf "split";
      add_int buf i;
      List.iter (add_arg buf add_tree) [ l; r ];
      close buf
  | Unit (i, pol, sub) ->
      open_tag buf "unit";
      add_int buf i;
      add_atom buf (string_of_bool pol);
      add_arg buf add_tree sub;
      close buf
  | BoolLeaf -> Buffer.add_string buf "(bfalse)"
  | TheoryLeaf tr -> add_node buf "theory" add_trefut [ tr ]

let add_proof buf (p : t) =
  let field tag add xs =
    Buffer.add_char buf ' ';
    add_node buf tag add xs
  in
  open_tag buf "proof";
  field "goal" add_term [ p.goal ];
  field "fresh" add_fresh p.fresh;
  field "skeleton" add_term [ p.skeleton ];
  field "defs" add_term p.defs;
  field "atoms" add_term (Array.to_list p.atoms);
  field "tree" add_tree [ p.tree ];
  close buf

let fresh_of_sexp = function
  | List [ Atom "divmod"; a; c; Atom q ] ->
      Divmod (term_of_sexp a, int_of_atom c, q)
  | List [ Atom "opaque"; key; Atom v; Atom s ] ->
      Opaque (term_of_sexp key, v, sort_of_atom s)
  | List [ Atom "itev"; c; a; b; Atom v ] ->
      IteV (term_of_sexp c, term_of_sexp a, term_of_sexp b, v)
  | _ -> raise (Parse_error "fresh")

let src_of_sexp = function
  | List [ Atom "hyp"; i; pol; dir ] ->
      Hyp (int_of_atom i, bool_of_atom pol, int_of_atom dir)
  | List [ Atom "step"; i ] -> Step (int_of_atom i)
  | List [ Atom "dle"; i ] -> Dle (int_of_atom i)
  | List [ Atom "dge"; i ] -> Dge (int_of_atom i)
  | _ -> raise (Parse_error "src")

let step_of_sexp = function
  | List (Atom "comb" :: ks) ->
      Comb
        (List.map
           (function
             | List [ k; s ] -> (int_of_atom k, src_of_sexp s)
             | _ -> raise (Parse_error "comb entry"))
           ks)
  | List [ Atom "tight"; s ] -> Tight (src_of_sexp s)
  | _ -> raise (Parse_error "step")

let rec trefut_of_sexp = function
  | List (Atom "steps" :: ss) -> Steps (List.map step_of_sexp ss)
  | List [ Atom "dsplit"; i; l; r ] ->
      Dsplit (int_of_atom i, trefut_of_sexp l, trefut_of_sexp r)
  | _ -> raise (Parse_error "trefut")

let rec tree_of_sexp = function
  | List [ Atom "split"; i; l; r ] ->
      Split (int_of_atom i, tree_of_sexp l, tree_of_sexp r)
  | List [ Atom "unit"; i; pol; sub ] ->
      Unit (int_of_atom i, bool_of_atom pol, tree_of_sexp sub)
  | List [ Atom "bfalse" ] -> BoolLeaf
  | List [ Atom "theory"; tr ] -> TheoryLeaf (trefut_of_sexp tr)
  | _ -> raise (Parse_error "tree")

let of_sexp (s : sexp) : t =
  match s with
  | List
      [
        Atom "proof";
        List (Atom "goal" :: [ goal ]);
        List (Atom "fresh" :: fresh);
        List (Atom "skeleton" :: [ skeleton ]);
        List (Atom "defs" :: defs);
        List (Atom "atoms" :: atoms);
        List (Atom "tree" :: [ tree ]);
      ] ->
      {
        goal = term_of_sexp goal;
        fresh = List.map fresh_of_sexp fresh;
        skeleton = term_of_sexp skeleton;
        defs = List.map term_of_sexp defs;
        atoms = Array.of_list (List.map term_of_sexp atoms);
        tree = tree_of_sexp tree;
      }
  | _ -> raise (Parse_error "proof")

let to_string (p : t) : string =
  let buf = Buffer.create 1024 in
  add_proof buf p;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let of_string (src : string) : t =
  match parse_sexps src with
  | [ s ] -> of_sexp s
  | _ -> raise (Parse_error "expected exactly one proof")

(* ------------------------------------------------------------------ *)
(* Function-level certificates                                         *)
(* ------------------------------------------------------------------ *)

(** A function's certificate: one proof per discharged goal, keyed by
    the clause tag (Flux) or VC index (WP). Stored next to the verdict
    in the cache as s-expression text under the same content key, so a
    certificate can never be replayed against the wrong source. *)
let cert_to_string (entries : (int * t) list) : string =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (tag, p) ->
      open_tag buf "cert";
      add_int buf tag;
      add_arg buf add_proof p;
      close buf;
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

let cert_of_string (src : string) : (int * t) list =
  List.map
    (function
      | List [ Atom "cert"; tag; p ] -> (int_of_atom tag, of_sexp p)
      | _ -> raise (Parse_error "cert"))
    (parse_sexps src)
