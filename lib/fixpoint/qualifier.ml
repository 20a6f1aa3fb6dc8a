(** Logical qualifiers — the quantifier-free templates from which the
    liquid solver assembles κ solutions (Rondon et al. 2008).

    A qualifier is a predicate over a distinguished value parameter [v]
    and zero or more wildcard parameters. Instantiation for a κ variable
    substitutes the κ's first formal for [v] and enumerates sort-correct
    choices of the κ's remaining formals (plus small integer constants)
    for the wildcards. *)

open Flux_smt

type t = {
  qname : string;
  qvv : string * Sort.t;  (** the value parameter *)
  qwild : (string * Sort.t) list;  (** wildcard parameters *)
  qbody : Term.t;
}

let make ?(name = "q") ~vv ~wild body =
  { qname = name; qvv = vv; qwild = wild; qbody = body }

let pp fmt q =
  Format.fprintf fmt "%s[%s|%a]: %a" q.qname (fst q.qvv)
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       (fun fmt (x, _) -> Format.pp_print_string fmt x))
    q.qwild Term.pp q.qbody

(** The default qualifier set, mirroring the small set of
    quantifier-free templates that DSOLVE/Flux ship with: order and
    equality comparisons of the value against a program variable or a
    small constant, and off-by-one variants. *)
let default : t list =
  let v = ("v", Sort.Int) in
  let x = ("x", Sort.Int) in
  let tv = Term.var "v" and tx = Term.var "x" in
  let cmps =
    [
      ("le", Term.le tv tx);
      ("lt", Term.lt tv tx);
      ("eq", Term.eq tv tx);
      ("ge", Term.ge tv tx);
      ("gt", Term.gt tv tx);
    ]
  in
  let with_var =
    List.map (fun (n, b) -> make ~name:("v_" ^ n ^ "_x") ~vv:v ~wild:[ x ] b) cmps
  in
  let consts =
    List.concat_map
      (fun c ->
        [
          make ~name:(Printf.sprintf "v_ge_%d" c) ~vv:v ~wild:[]
            (Term.ge tv (Term.int c));
          make ~name:(Printf.sprintf "v_eq_%d" c) ~vv:v ~wild:[]
            (Term.eq tv (Term.int c));
          make ~name:(Printf.sprintf "v_le_%d" c) ~vv:v ~wild:[]
            (Term.le tv (Term.int c));
        ])
      [ 0; 1 ]
  in
  let offsets =
    [
      make ~name:"v_eq_x_plus_1" ~vv:v ~wild:[ x ]
        (Term.eq tv (Term.add tx (Term.int 1)));
      make ~name:"v_eq_x_minus_1" ~vv:v ~wild:[ x ]
        (Term.eq tv (Term.sub tx (Term.int 1)));
      make ~name:"v_lt_x_plus_1" ~vv:v ~wild:[ x ]
        (Term.lt tv (Term.add tx (Term.int 1)));
      make ~name:"v_le_x_plus_1" ~vv:v ~wild:[ x ]
        (Term.le tv (Term.add tx (Term.int 1)));
      make ~name:"v_plus_1_le_x" ~vv:v ~wild:[ x ]
        (Term.le (Term.add tv (Term.int 1)) tx);
      (* halving patterns (binary search, fft bit-reversal) *)
      make ~name:"v_dbl_le_x" ~vv:v ~wild:[ x ]
        (Term.le (Term.mul (Term.int 2) tv) tx);
      (* two-variable sums (strong-reference growth loops, windows) *)
      (let y = ("y", Sort.Int) in
       make ~name:"v_eq_x_plus_y" ~vv:v ~wild:[ x; y ]
         (Term.eq tv (Term.add tx (Term.var "y"))));
      (let y = ("y", Sort.Int) in
       make ~name:"v_plus_x_le_y" ~vv:v ~wild:[ x; y ]
         (Term.le (Term.add tv tx) (Term.var "y")));
    ]
  in
  let bools =
    let vb = ("v", Sort.Bool) in
    let tvb = Term.bvar "v" in
    let y = ("y", Sort.Int) in
    let ty = Term.var "y" in
    [
      make ~name:"v_true" ~vv:vb ~wild:[] tvb;
      make ~name:"v_not" ~vv:vb ~wild:[] (Term.mk_not tvb);
      (* boolean results of comparisons, e.g. bool<0 < n> *)
      make ~name:"v_iff_lt" ~vv:vb ~wild:[ x; y ] (Term.mk_iff tvb (Term.lt tx ty));
      make ~name:"v_iff_le" ~vv:vb ~wild:[ x; y ] (Term.mk_iff tvb (Term.le tx ty));
      make ~name:"v_iff_eq" ~vv:vb ~wild:[ x; y ] (Term.mk_iff tvb (Term.eq tx ty));
    ]
  in
  with_var @ consts @ offsets @ bools

(** Scope bound above which multi-wildcard qualifiers are skipped: the
    quadratic instantiation only pays off in small scopes (growth loops,
    window bounds), while in large join environments it dominates solve
    time without adding solutions the suite needs. *)
let multi_wildcard_scope_limit = 9

(** Instantiate qualifier [q] for a κ with formals [params] (the first
    formal is the value position). Returns concrete predicates over the
    κ's formal parameters. *)
let instantiate (q : t) (params : (string * Sort.t) list) : Term.t list =
  match params with
  | [] -> []
  | _
    when List.length q.qwild >= 2
         && List.length params > multi_wildcard_scope_limit ->
      []
  | (v0, s0) :: rest ->
      if not (Sort.equal s0 (snd q.qvv)) then []
      else
        let candidates_for (_, sw) =
          let vars =
            List.filter_map
              (fun (x, s) ->
                if Sort.equal s sw then Some (Term.Var (x, s)) else None)
              rest
          in
          (* small integer constants are also wildcard candidates, so
             templates like v ⇔ 0 < x are expressible *)
          if Sort.equal sw Sort.Int then vars @ [ Term.int 0 ] else vars
        in
        let rec combos = function
          | [] -> [ [] ]
          | w :: ws ->
              let rest_combos = combos ws in
              List.concat_map
                (fun c -> List.map (fun tl -> (fst w, c) :: tl) rest_combos)
                (candidates_for w)
        in
        let base = [ (fst q.qvv, Term.Var (v0, s0)) ] in
        List.map (fun m -> Term.subst (base @ m) q.qbody) (combos q.qwild)

(** Instantiate a whole qualifier set for a κ with [values] leading
    value positions: each value position in turn plays the qualifier's
    [v] role (a κ for a doubly-indexed struct must constrain both
    indices). Deduplicates syntactically. *)
let instantiate_all ?(values = 1) (qs : t list)
    (params : (string * Sort.t) list) : Term.t list =
  let seen = Hashtbl.create 64 in
  let rotations =
    List.init (max 1 (min values (List.length params))) (fun i ->
        let vi = List.nth params i in
        vi :: List.filteri (fun j _ -> j <> i) params)
  in
  List.concat_map
    (fun params -> List.concat_map (fun q -> instantiate q params) qs)
    rotations
  |> List.filter (fun t ->
         let key = Term.to_string t in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.add seen key ();
           true
         end)
