(** Theory solver for conjunctions of linear integer constraints.

    Feasibility is decided by Fourier–Motzkin elimination with integer
    tightening (constraint normalization by the gcd of the variable
    coefficients, flooring the constant). Rational infeasibility implies
    integer infeasibility, so reporting [false] ("unsat") is always
    sound; reporting [true] may over-approximate satisfiability, which
    makes the overall validity checker sound-but-incomplete — the right
    polarity for a verifier (it can reject a good program but never
    accept a bad one).

    Constraints are [Σ cᵢ·xᵢ + k ≤ 0] over integer variables; strict
    inequalities are tightened to non-strict ones up front ([a < b]
    becomes [a + 1 ≤ b]). Equalities are eliminated by substitution when
    a unit-coefficient variable is available, otherwise split into two
    inequalities; the substitutions are composed and applied to each
    remaining row once (see [elim_eqs]).

    Elimination rounds hold one entry per distinct row with the number
    of copies of it the textbook procedure would hold, and build each
    distinct (positive, negative) pair of entries once: a weakening
    hypothesis repeats a handful of rows many times, and the copies
    multiply round after round. A round's rows are dense: two int
    arrays (variable numbers and coefficients) over the system's
    variables numbered in name order, the order [SMap] iterates, so
    [choose_var] reads the textbook procedure's tie-break from each
    name's [Hashtbl.hash] and its first occurrence. The rounds take
    that procedure's decisions exactly (see [rounds]), whatever the
    hash-table seed; the test suite keeps it as the reference.

    A system is decided one connected component at a time, and is
    infeasible exactly when one of its components is. A {!context} (a
    weakening hypothesis asked many goals) keeps, per component, its
    Phase 1, its first round, and its verdict alone: a check pays for
    the component its new rows touch, and reads the verdict of every
    other one (see [decide_split]). *)

module SMap = Map.Make (String)

type lin = { coeffs : int SMap.t; const : int }
(** [Σ coeffs(x)·x + const], as a linear integer form. *)

let lin_zero = { coeffs = SMap.empty; const = 0 }
let lin_const k = { coeffs = SMap.empty; const = k }
let lin_var x = { coeffs = SMap.singleton x 1; const = 0 }

let lin_add a b =
  {
    coeffs =
      SMap.union
        (fun _ c1 c2 -> if c1 + c2 = 0 then None else Some (c1 + c2))
        a.coeffs b.coeffs;
    const = a.const + b.const;
  }

let lin_scale k a =
  if k = 0 then lin_zero
  else { coeffs = SMap.map (fun c -> k * c) a.coeffs; const = k * a.const }

let lin_sub a b = lin_add a (lin_scale (-1) b)
let lin_is_const a = SMap.is_empty a.coeffs

let pp_lin fmt a =
  let first = ref true in
  SMap.iter
    (fun x c ->
      if !first then (
        first := false;
        if c = 1 then Format.fprintf fmt "%s" x
        else Format.fprintf fmt "%d*%s" c x)
      else if c >= 0 then
        if c = 1 then Format.fprintf fmt " + %s" x
        else Format.fprintf fmt " + %d*%s" c x
      else if c = -1 then Format.fprintf fmt " - %s" x
      else Format.fprintf fmt " - %d*%s" (-c) x)
    a.coeffs;
  if !first then Format.fprintf fmt "%d" a.const
  else if a.const > 0 then Format.fprintf fmt " + %d" a.const
  else if a.const < 0 then Format.fprintf fmt " - %d" (-a.const)

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(** Euclidean-style floor division (rounds toward negative infinity). *)
let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

(** Tighten [lin ≤ 0]: divide the variable part by its gcd [g] and take
    the floor of [const/g]. Returns [None] if the constraint is the
    trivially true [k ≤ 0] with [k ≤ 0], and [Some] otherwise. Raises
    [Infeasible] on a constant contradiction. *)
exception Infeasible

let tighten (a : lin) : lin option =
  if lin_is_const a then if a.const > 0 then raise Infeasible else None
  else
    let g = SMap.fold (fun _ c acc -> gcd c acc) a.coeffs 0 in
    if g <= 1 then Some a
    else
      Some
        {
          coeffs = SMap.map (fun c -> c / g) a.coeffs;
          (* c·g·x + k ≤ 0  ⟺  c·x ≤ floor(-k/g)  ⟺ c·x - floor(-k/g) ≤ 0 *)
          const = -fdiv (-a.const) g;
        }

(* ------------------------------------------------------------------ *)
(* Equality elimination                                                *)
(* ------------------------------------------------------------------ *)

(** Substitute [x := rhs] (where the equality is [x = rhs]) into [a]. *)
let lin_subst x (rhs : lin) (a : lin) =
  match SMap.find_opt x a.coeffs with
  | None -> a
  | Some c ->
      let a' = { a with coeffs = SMap.remove x a.coeffs } in
      lin_add a' (lin_scale c rhs)

(** From an equality [e = 0], find a variable with coefficient ±1 and
    return [(x, rhs)] such that [x = rhs]. *)
let solvable_eq (e : lin) : (string * lin) option =
  let found =
    SMap.fold
      (fun x c acc ->
        match acc with
        | Some _ -> acc
        | None -> if c = 1 || c = -1 then Some (x, c) else None)
      e.coeffs None
  in
  match found with
  | None -> None
  | Some (x, c) ->
      (* c·x + rest = 0  ⟹  x = -rest/c; for c = ±1 this is exact. *)
      let rest = { e with coeffs = SMap.remove x e.coeffs } in
      Some (x, lin_scale (-c) rest)

(* ------------------------------------------------------------------ *)
(* Fourier–Motzkin                                                     *)
(* ------------------------------------------------------------------ *)

(** Bound on intermediate constraint-set size; beyond it we give up and
    answer "maybe satisfiable" (sound for the validity checker). *)
let fm_limit = 20_000

(** A system's variables, numbered in name order (the order [SMap]
    iterates), each with its [Hashtbl.hash]. *)
type numbering = { names : string array; hashes : int array }

let numbering_of_names names = { names; hashes = Array.map Hashtbl.hash names }

(** The numbering of the variables of [rows]. *)
let numbering (rows : lin list) : numbering =
  let all =
    List.fold_left
      (fun acc l -> SMap.union (fun _ c _ -> Some c) acc l.coeffs)
      SMap.empty rows
  in
  let names = Array.make (SMap.cardinal all) "" in
  ignore (SMap.fold (fun x _ i -> names.(i) <- x; i + 1) all 0);
  numbering_of_names names

(** A row [Σ cs.(j)·x(vs.(j)) + k ≤ 0] over a numbering: [vs]
    ascending, so in name order, and no coefficient zero. *)
type row = { vs : int array; cs : int array; k : int }

(** A row names a variable its numbering lacks. *)
exception Unnumbered

(** [x]'s number, searched from [lo] on. *)
let number_of (nb : numbering) x lo =
  let rec search lo hi =
    if lo >= hi then raise Unnumbered
    else
      let mid = (lo + hi) lsr 1 in
      let o = String.compare x nb.names.(mid) in
      if o = 0 then mid else if o < 0 then search lo mid else search (mid + 1) hi
  in
  search lo (Array.length nb.names)

(** [l] over [nb]. Raises [Unnumbered]. *)
let row_of (nb : numbering) (l : lin) : row =
  let n = SMap.cardinal l.coeffs in
  let vs = Array.make n 0 and cs = Array.make n 0 in
  ignore
    (SMap.fold
       (fun x c j ->
         let v = number_of nb x (if j = 0 then 0 else vs.(j - 1) + 1) in
         vs.(j) <- v;
         cs.(j) <- c;
         j + 1)
       l.coeffs 0);
  { vs; cs; k = l.const }

let lin_of_row (nb : numbering) (r : row) : lin =
  let coeffs = ref SMap.empty in
  Array.iteri (fun j v -> coeffs := SMap.add nb.names.(v) r.cs.(j) !coeffs) r.vs;
  { coeffs = !coeffs; const = r.k }

let row_equal a b =
  a.k = b.k
  && Array.length a.vs = Array.length b.vs
  &&
  let rec same j =
    j < 0 || (a.vs.(j) = b.vs.(j) && a.cs.(j) = b.cs.(j) && same (j - 1))
  in
  same (Array.length a.vs - 1)

module Rows = Hashtbl.Make (struct
  type t = row

  let equal = row_equal

  let hash r =
    let h = ref r.k in
    for j = 0 to Array.length r.vs - 1 do
      h := (!h * 65599) + (r.vs.(j) * 31) + r.cs.(j)
    done;
    !h land max_int
end)

(** [x]'s coefficient in [r], zero when it has none. *)
let coeff (r : row) x =
  let rec find j =
    if j >= Array.length r.vs then 0
    else if r.vs.(j) = x then r.cs.(j)
    else if r.vs.(j) > x then 0
    else find (j + 1)
  in
  find 0

(** {!tighten} on a row. *)
let tighten_row (r : row) : row option =
  if Array.length r.vs = 0 then if r.k > 0 then raise Infeasible else None
  else
    let g = Array.fold_left (fun acc c -> gcd c acc) 0 r.cs in
    if g <= 1 then Some r
    else Some { r with cs = Array.map (fun c -> c / g) r.cs; k = -fdiv (-r.k) g }

(** [b·p + a·q], with [x] (positive in [p], negative in [q]) cancelled
    and every other zero sum dropped. *)
let combine (p : row) b (q : row) a : row =
  let lp = Array.length p.vs and lq = Array.length q.vs in
  let vs = Array.make (lp + lq) 0 and cs = Array.make (lp + lq) 0 in
  let rec merge i j m =
    if i < lp && (j >= lq || p.vs.(i) < q.vs.(j)) then begin
      vs.(m) <- p.vs.(i);
      cs.(m) <- b * p.cs.(i);
      merge (i + 1) j (m + 1)
    end
    else if j < lq && (i >= lp || q.vs.(j) < p.vs.(i)) then begin
      vs.(m) <- q.vs.(j);
      cs.(m) <- a * q.cs.(j);
      merge i (j + 1) (m + 1)
    end
    else if i < lp then begin
      let c = (b * p.cs.(i)) + (a * q.cs.(j)) in
      if c = 0 then merge (i + 1) (j + 1) m
      else begin
        vs.(m) <- p.vs.(i);
        cs.(m) <- c;
        merge (i + 1) (j + 1) (m + 1)
      end
    end
    else m
  in
  let m = merge 0 0 0 in
  { vs = Array.sub vs 0 m; cs = Array.sub cs 0 m; k = (b * p.k) + (a * q.k) }

(** One distinct row of an elimination round. It stands for [mult]
    copies of [row] in the row list the textbook procedure would hold
    at this point. A round keeps its entries in the order of their
    first copies in that list; [last] orders the entries by the
    position of their last copies. *)
type entry = { row : row; mutable mult : int; mutable last : int }

(** Pick the variable minimizing (#positive × #negative) occurrences,
    counted over row copies, to keep the FM blowup small, or [-1] when
    no row has a variable.

    The textbook procedure tallies the variables in a [Hashtbl] created
    with 16 buckets, one [replace] per copy, and breaks ties by the
    order of [Hashtbl.fold]: buckets in index order, each listing its
    keys newest first, which resizing keeps. An unseeded table puts a
    key in bucket [Hashtbl.hash x land (size - 1)], and after [n] keys
    its size is the least [16·2^i] with [n ≤ 2·size]. Entries come in
    the order of their first copies and a row's variables in name
    order, so a variable's [rank] (when it first occurs) is its
    insertion order there, and the tie-break is read off [(bucket,
    -rank)] without a table — and without the seed [OCAMLRUNPARAM=R]
    would give one. *)
let choose_var (nb : numbering) (es : entry list) : int =
  let n = Array.length nb.names in
  let pos = Array.make n 0 and neg = Array.make n 0 in
  let rank = Array.make n (-1) and seen = ref 0 in
  List.iter
    (fun e ->
      let r = e.row in
      for j = 0 to Array.length r.vs - 1 do
        let v = r.vs.(j) in
        if rank.(v) < 0 then begin
          rank.(v) <- !seen;
          incr seen
        end;
        if r.cs.(j) > 0 then pos.(v) <- pos.(v) + e.mult
        else neg.(v) <- neg.(v) + e.mult
      done)
    es;
  let rec size s = if !seen > 2 * s then size (2 * s) else s in
  let mask = size 16 - 1 in
  let best = ref (-1) and bcost = ref 0 and bbucket = ref 0 in
  for v = 0 to n - 1 do
    if rank.(v) >= 0 then begin
      let cost = pos.(v) * neg.(v) and bucket = nb.hashes.(v) land mask in
      if
        !best < 0 || cost < !bcost
        || cost = !bcost
           && (bucket < !bbucket || (bucket = !bbucket && rank.(v) > rank.(!best)))
      then begin
        best := v;
        bcost := cost;
        bbucket := bucket
      end
    end
  done;
  !best

(** The entries of the rows [emit] produces, in the order it first
    produces each: equal rows merge, adding their multiplicities and
    keeping the larger [last]. *)
let entries (emit : (row -> int -> int -> unit) -> unit) : entry list =
  let table = Rows.create 16 in
  let order = ref [] in
  emit (fun row mult last ->
      match Rows.find_opt table row with
      | Some e ->
          e.mult <- e.mult + mult;
          if last > e.last then e.last <- last
      | None ->
          let e = { row; mult; last } in
          Rows.add table row e;
          order := e :: !order);
  List.rev !order

(** A distinct row of a row list, by bindings, with its number of
    copies and the position of its last copy. *)
type copies = { lin : lin; mutable copies : int; mutable at : int }

(** Rows compared by their bindings: equal maps may differ in shape. *)
module Lins = Hashtbl.Make (struct
  type t = lin

  let equal a b = a.const = b.const && SMap.equal Int.equal a.coeffs b.coeffs

  let hash a =
    SMap.fold
      (fun x c h -> (h * 65599) + (Hashtbl.hash x * 31) + c)
      a.coeffs a.const
    land max_int
end)

(** [acc] with the rows of [rows] that [table] does not hold yet
    prepended, the copy at position [from + i] counted in its row's
    entry. A weakening hypothesis repeats a few rows many times, so a
    list is merged before it is converted: only its distinct rows
    become dense rows. *)
let add_copies table acc from (rows : lin list) : copies list =
  let acc = ref acc in
  List.iteri
    (fun i l ->
      match Lins.find_opt table l with
      | Some c ->
          c.copies <- c.copies + 1;
          c.at <- from + i
      | None ->
          let c = { lin = l; copies = 1; at = from + i } in
          Lins.add table l c;
          acc := c :: !acc)
    rows;
  !acc

(** The entries of distinct rows, in their order, over the numbering
    of their variables. *)
let dense (cs : copies list) : numbering * entry list =
  let nb = numbering (List.map (fun c -> c.lin) cs) in
  (nb, List.map (fun c -> { row = row_of nb c.lin; mult = c.copies; last = c.at }) cs)

(** The first round's entries of the row list [rows] (a copy's [last]
    is its position), and their numbering. *)
let list_entries (rows : lin list) : numbering * entry list =
  dense (List.rev (add_copies (Lins.create 16) [] 0 rows))

(** Phase 2 of {!feasible_conn} from the first round's entries [es]
    over [nb]: eliminate the variables one a round. Raises [Infeasible]
    on a constant contradiction. A round builds new entries and never
    mutates the ones it is given.

    A round holds entries, not the row list, yet takes the list
    procedure's decisions. Those read only each round's row multiset
    and the order in which variables first occur in the list (the
    tie-break of [choose_var]), and the entries keep both. DESIGN.md
    ("Fourier–Motzkin on row multisets") gives the argument. *)
let rounds (nb : numbering) (es : entry list) : bool =
  (* the pairs and copies built, added to the profile once per call *)
  let pairs = ref 0 and built = ref 0 in
  let rec round (es : entry list) =
    let es =
      List.filter_map
        (fun e ->
          match tighten_row e.row with
          | None -> None
          | Some row -> Some (if row == e.row then e else { e with row }))
        es
    in
    if List.fold_left (fun n e -> n + e.mult) 0 es > fm_limit then true
      (* give up: maybe SAT *)
    else
      let x = choose_var nb es in
      if x < 0 then true (* only constants left, all satisfied *)
      else
        (* One pass in first-copy order, prepending as the list code
           does; [f] is an entry's first-copy rank. *)
        let _, pos, neg, rest =
          List.fold_left
            (fun (f, p, n, r) e ->
              let k = coeff e.row x in
              if k > 0 then (f + 1, (f, e) :: p, n, r)
              else if k < 0 then (f + 1, p, (f, e) :: n, r)
              else (f + 1, p, n, (f, e) :: r))
            (0, [], [], []) es
        in
        (* The list code walks each part reversed, so the part's first
           copies come in descending order of last copies. *)
        let rec descending = function
          | (_, a) :: ((_, b) :: _ as tl) -> a.last > b.last && descending tl
          | _ -> true
        in
        let reversed part =
          if descending part then part
          else List.sort (fun (_, a) (_, b) -> compare b.last a.last) part
        in
        (* The next list holds, in order, each pair's copies, then the
           other rows. A pair's last copy pairs the last copies in the
           reversed parts, which are the entries' first copies: the keys
           below order those positions. *)
        let d = List.length es in
        let w = d + 1 in
        let pos = reversed pos and neg = reversed neg in
        let next =
          entries (fun add ->
              List.iter
                (fun (fp, ep) ->
                  let a = coeff ep.row x in
                  List.iter
                    (fun (fn, en) ->
                      let b = -coeff en.row x in
                      (* b·cp + a·cn eliminates x (a>0, b>0). *)
                      add
                        (combine ep.row b en.row a)
                        (ep.mult * en.mult)
                        (((d - fp) * w) + (d - fn)))
                    neg)
                pos;
              List.iter
                (fun (f, e) -> add e.row e.mult ((w * w) + (d - f)))
                (reversed rest))
        in
        let copies l = List.fold_left (fun n (_, e) -> n + e.mult) 0 l in
        pairs := !pairs + (List.length pos * List.length neg);
        built := !built + (copies pos * copies neg);
        round next
  in
  let count () =
    Profile.add "lia.fm_rows" !pairs;
    Profile.add "lia.fm_row_copies" !built
  in
  match round es with
  | v ->
      count ();
      v
  | exception Infeasible ->
      count ();
      raise Infeasible

let fm (rows : lin list) : bool =
  let nb, es = list_entries rows in
  rounds nb es

(** The first round's entries of [splits @ rows], a component's Phase 1,
    kept for the checks that add rows to it (see {!kept_entries}), over
    the numbering of its variables. *)
type kept = {
  k_vars : numbering;
  k_entries : entry array;  (** first-copy order; never mutated *)
  k_index : int Rows.t;  (** row → its entry's position in [k_entries] *)
  k_nsplit : int;  (** how many entries were first seen among [splits] *)
  k_splits : int;  (** the length of [splits] *)
  k_rows : int;  (** the length of [rows] *)
}

let keep (splits : lin list) (rows : lin list) : kept =
  let table = Lins.create 16 and s = List.length splits in
  let firsts = add_copies table [] 0 splits in
  let nb, es = dense (List.rev (add_copies table firsts s rows)) in
  let es = Array.of_list es in
  let index = Rows.create 16 in
  Array.iteri (fun i e -> Rows.add index e.row i) es;
  {
    k_vars = nb;
    k_entries = es;
    k_index = index;
    k_nsplit = List.length firsts;
    k_splits = s;
    k_rows = List.length rows;
  }

(** [k] over a numbering that also holds the variables of [extra]: its
    rows renumbered, in the same order and at the same positions. *)
let renumber (k : kept) (extra : lin list) : kept =
  let old = k.k_vars.names in
  let added =
    List.fold_left
      (fun acc l ->
        SMap.fold
          (fun x _ acc ->
            match number_of k.k_vars x 0 with
            | _ -> acc
            | exception Unnumbered -> SMap.add x () acc)
          l.coeffs acc)
      SMap.empty extra
  in
  let names =
    Array.of_list
      (List.merge String.compare (Array.to_list old) (List.map fst (SMap.bindings added)))
  in
  let nb = numbering_of_names names in
  (* both ascending: old number → new number *)
  let remap = Array.make (Array.length old) 0 in
  let j = ref 0 in
  Array.iteri
    (fun i x ->
      while not (String.equal names.(!j) x) do
        incr j
      done;
      remap.(i) <- !j)
    old;
  let index = Rows.create 16 in
  let es =
    Array.mapi
      (fun i e ->
        let row = { e.row with vs = Array.map (Array.get remap) e.row.vs } in
        Rows.add index row i;
        { e with row })
      k.k_entries
  in
  { k with k_vars = nb; k_entries = es; k_index = index }

(** The first round's entries of [splits @ (g :: rows @ extra)] ([g]
    when present), for [k] kept from [splits @ rows], and their
    numbering: [list_entries] of that list, built from a copy of the
    kept entries, converting and hashing only [g] and [extra]. When
    one of those brings a variable [k] lacks, the kept entries are
    renumbered first ({!renumber}).

    [g], present, stands at position [s] (the length of [splits]), so
    every copy from [rows] moves up by one. It merges into its entry,
    or starts a new one; either way its first copy comes right after
    the entries first seen among [splits], and an entry first seen
    among [rows] moves there. Each row of [extra] merges into its
    entry, or starts a new one at the end. With neither, the kept
    entries themselves are the answer: the rounds do not mutate them. *)
let kept_entries (k : kept) (g : lin option) (extra : lin list) =
  match (g, extra) with
  | None, [] -> (k.k_vars, Array.to_list k.k_entries)
  | _ ->
      let k, g, extra =
        let conv k = (k, Option.map (row_of k.k_vars) g, List.map (row_of k.k_vars) extra) in
        try conv k with Unnumbered -> conv (renumber k (Option.to_list g @ extra))
      in
      let s = k.k_splits in
      let es = Array.map (fun e -> { e with mult = e.mult }) k.k_entries in
      let shift = if Option.is_some g then 1 else 0 in
      if shift = 1 then
        Array.iter (fun e -> if e.last >= s then e.last <- e.last + 1) es;
      (* the entries of rows [k] does not hold, last first *)
      let added = ref [] in
      let merge row pos =
        match Rows.find_opt k.k_index row with
        | Some i ->
            let e = es.(i) in
            e.mult <- e.mult + 1;
            if pos > e.last then e.last <- pos;
            Some i
        | None -> (
            match List.find_opt (fun e -> row_equal e.row row) !added with
            | Some e ->
                e.mult <- e.mult + 1;
                e.last <- pos;
                None
            | None ->
                added := { row; mult = 1; last = pos } :: !added;
                None)
      in
      (* [g]'s entry when it comes right after the split-first ones *)
      let second =
        match g with
        | None -> None
        | Some g -> (
            match merge g s with
            | Some i when i < k.k_nsplit -> None
            | Some i -> Some es.(i)
            | None -> Some (List.hd !added))
      in
      let base = s + shift + k.k_rows in
      List.iteri (fun j row -> ignore (merge row (base + j))) extra;
      let moved e = match second with Some e' -> e == e' | None -> false in
      let acc = ref (List.filter (fun e -> not (moved e)) (List.rev !added)) in
      for i = Array.length es - 1 downto k.k_nsplit do
        if not (moved es.(i)) then acc := es.(i) :: !acc
      done;
      Option.iter (fun e -> acc := e :: !acc) second;
      for i = k.k_nsplit - 1 downto 0 do
        acc := es.(i) :: !acc
      done;
      (k.k_vars, !acc)

let fm_kept (k : kept) (g : lin option) (extra : lin list) : bool =
  let nb, es = kept_entries k g extra in
  rounds nb es

let entry_triples (nb, es) =
  List.map (fun e -> (lin_of_row nb e.row, e.mult, e.last)) es

let first_round rows = entry_triples (list_entries rows)

let kept_first_round k g extra = entry_triples (kept_entries k g extra)

(** A composed substitution: each eliminated variable's value, over
    variables it does not eliminate. *)
type subst = lin SMap.t

(** [a] under [sigma]: each eliminated [x] with coefficient [c] is
    replaced by [c·sigma(x)]. [a] itself when it has none. *)
let lin_apply (sigma : subst) (a : lin) : lin =
  SMap.fold
    (fun x c acc ->
      match SMap.find_opt x sigma with
      | None -> acc
      | Some v ->
          lin_add { acc with coeffs = SMap.remove x acc.coeffs } (lin_scale c v))
    a.coeffs a

(** What one equality of {!solve_eqs} comes to under the substitution
    so far. *)
type solved =
  | Dropped  (** a true constant *)
  | Solved_for of string * lin  (** [x = rhs], for the {!solvable_eq} pick *)
  | Split of lin  (** no unit coefficient: split, as it stands *)

(** [e] under [sigma]. Raises [Infeasible] on a false constant, and on
    an equality without a unit coefficient whose gcd does not divide its
    constant. *)
let solve_eq sigma e =
  let e = lin_apply sigma e in
  if lin_is_const e then if e.const <> 0 then raise Infeasible else Dropped
  else
    match solvable_eq e with
    | Some (x, rhs) -> Solved_for (x, rhs)
    | None ->
        let g = SMap.fold (fun _ c acc -> gcd c acc) e.coeffs 0 in
        if g > 1 && e.const mod g <> 0 then raise Infeasible else Split e

(** [sigma] composed with [x := rhs]. *)
let compose sigma x rhs = SMap.add x rhs (SMap.map (lin_subst x rhs) sigma)

(** The equalities [eqs] (each [= 0]) solved in order: each one under
    the substitution so far is a constant (checked and dropped), is
    solved for the variable {!solvable_eq} picks (the substitution
    composes with it), or has no unit coefficient and is split. Returns
    the substitution and the split equalities, last first, each as it
    stood when it was reached. Raises [Infeasible]. *)
let solve_eqs (eqs : lin list) : subst * lin list =
  List.fold_left
    (fun (sigma, splits) e ->
      match solve_eq sigma e with
      | Dropped -> (sigma, splits)
      | Solved_for (x, rhs) -> (compose sigma x rhs, splits)
      | Split e -> (sigma, e :: splits))
    (SMap.empty, []) eqs

(** The split equalities under the final substitution, each as [e ≤ 0]
    then [-e ≤ 0]. *)
let split_rows sigma splits =
  List.concat_map
    (fun e ->
      let e = lin_apply sigma e in
      [ e; lin_scale (-1) e ])
    splits

(** [rows] under [sigma]. *)
let apply_rows sigma rows =
  if SMap.is_empty sigma then rows else List.map (lin_apply sigma) rows

(** Phase 1 of {!feasible_conn}: eliminate the equalities [eqs] (each
    [= 0]) from [ineqs] (each [≤ 0]) by substitution, or split one into
    two inequalities when it has no unit coefficient. Returns the
    inequalities left, the split rows of later equalities first; raises
    [Infeasible] on a contradiction.

    Substituting each solved equality into every remaining row in turn
    gives the same rows as composing the substitutions and applying the
    composition once: by linearity the forms are equal, and a form's
    bindings are its non-zero coefficients. DESIGN.md ("Phase 1 by one
    composed substitution") gives the argument. *)
let elim_eqs eqs ineqs =
  let sigma, splits = solve_eqs eqs in
  split_rows sigma splits @ apply_rows sigma ineqs

(** Decide feasibility (over the rationals, with integer tightening) of
    the conjunction of [ineqs] (each [≤ 0]) and [eqs] (each [= 0]).
    Returns [false] only if definitely infeasible over the integers. *)
let feasible_conn ~(eqs : lin list) ~(ineqs : lin list) : bool =
  try fm (elim_eqs eqs ineqs) with Infeasible -> false

(** A constraint system split into connected components (constraints
    linked by shared variables). Variables are numbered densely by first
    occurrence, equalities before inequalities and each constraint's
    variables in key order, and each constraint joins its variables in
    an array union-find ({!join}). A component is named by its root's
    number. *)
type components = {
  ids : (string, int) Hashtbl.t;  (** variable → its number *)
  eq_nvars : int;  (** the equalities' variables are numbered below it *)
  eq_vars : int array array;  (** each equality's variables, as {!var_ids} *)
  ineq_vars : int array array;
  root : int array;  (** number → its component's root *)
}

(** [ineqs] (each [≤ 0]) or [eqs] (each [= 0]) hold a false constant
    constraint. *)
let constant_contradiction ~eqs ~ineqs =
  List.exists (fun c -> lin_is_const c && c.const <> 0) eqs
  || List.exists (fun c -> lin_is_const c && c.const > 0) ineqs

(** A constraint's variable numbers, largest key first; [id] meets the
    variables in key order. *)
let var_ids id c =
  Array.of_list (SMap.fold (fun x _ acc -> id x :: acc) c.coeffs [])

let rec find parent i =
  let p = parent.(i) in
  if p = i then i
  else
    let r = find parent p in
    parent.(i) <- r;
    r

(** Join a constraint's variables: the first one's root is pointed at
    each other one's root in turn, so the merged set keeps the root of
    the last set to join. *)
let join parent vs =
  for k = 1 to Array.length vs - 1 do
    let ri = find parent vs.(0) and rj = find parent vs.(k) in
    if ri <> rj then parent.(ri) <- rj
  done

let components ~(eqs : lin array) ~(ineqs : lin array) : components =
  let ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let id x =
    match Hashtbl.find_opt ids x with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids x i;
        i
  in
  let eq_vars = Array.map (var_ids id) eqs in
  let eq_nvars = Hashtbl.length ids in
  let ineq_vars = Array.map (var_ids id) ineqs in
  let parent = Array.init (Hashtbl.length ids) Fun.id in
  Array.iter (join parent) eq_vars;
  Array.iter (join parent) ineq_vars;
  let root = Array.init (Array.length parent) (find parent) in
  { ids; eq_nvars; eq_vars; ineq_vars; root }

(** Prepend each constraint of [cs] to [groups.(slot r)], for [r] its
    root: the root of its first variable in [vars] under [root]. A
    constant and a slot of [-1] are skipped. Each slot lists its
    constraints in reverse input order. *)
let collect groups ~slot (cs : lin array) (vars : int array array) root =
  Array.iteri
    (fun i l ->
      let s =
        if Array.length vars.(i) > 0 then slot root.(vars.(i).(0)) else -1
      in
      if s >= 0 then groups.(s) <- l :: groups.(s))
    cs

(** Decide a component; an empty one (no root) holds. *)
let decide_component ~eqs ~ineqs =
  match (eqs, ineqs) with [], [] -> true | _ -> feasible_conn ~eqs ~ineqs

(** The connected components of [eqs] and [ineqs], in the order of
    their roots: each one's equalities and inequalities, in reverse
    input order. A constant belongs to none. *)
let grouped ~(eqs : lin list) ~(ineqs : lin list) =
  let eqs = Array.of_list eqs and ineqs = Array.of_list ineqs in
  let c = components ~eqs ~ineqs in
  let n = Array.length c.root in
  let geqs = Array.make n [] and gineqs = Array.make n [] in
  collect geqs ~slot:Fun.id eqs c.eq_vars c.root;
  collect gineqs ~slot:Fun.id ineqs c.ineq_vars c.root;
  List.filter_map
    (fun r ->
      match (geqs.(r), gineqs.(r)) with
      | [], [] -> None
      | e, i -> Some (e, i))
    (List.init n Fun.id)

(** Split the constraint system into connected components and decide
    each independently, in the order of their roots — the conjunction
    is infeasible iff some component is. This keeps Fourier–Motzkin
    small on the large contexts produced by join-heavy functions.
    [feasible_conn] is pure and total, so the order in which components
    are decided cannot change the answer; it fixes which components the
    first infeasible one spares. *)
let feasible ~(eqs : lin list) ~(ineqs : lin list) : bool =
  (* constant constraints are decided immediately *)
  (not (constant_contradiction ~eqs ~ineqs))
  && List.for_all
       (fun (eqs, ineqs) -> decide_component ~eqs ~ineqs)
       (grouped ~eqs ~ineqs)

let split ~eqs ~ineqs =
  List.map (fun (e, i) -> (List.rev e, List.rev i)) (grouped ~eqs ~ineqs)

(* ------------------------------------------------------------------ *)
(* Literal interface                                                   *)
(* ------------------------------------------------------------------ *)

type literal =
  | Le0 of lin  (** lin ≤ 0 *)
  | Eq0 of lin  (** lin = 0 *)
  | Ne0 of lin  (** lin ≠ 0 *)

let pp_literal fmt = function
  | Le0 l -> Format.fprintf fmt "%a <= 0" pp_lin l
  | Eq0 l -> Format.fprintf fmt "%a = 0" pp_lin l
  | Ne0 l -> Format.fprintf fmt "%a != 0" pp_lin l

let partition (lits : literal list) =
  ( List.filter_map (function Eq0 l -> Some l | _ -> None) lits,
    List.filter_map (function Le0 l -> Some l | _ -> None) lits,
    List.filter_map (function Ne0 l -> Some l | _ -> None) lits )

(* ------------------------------------------------------------------ *)
(* A conjunction split once                                            *)
(* ------------------------------------------------------------------ *)

(** A component's Phase 1, done once: its equalities solved, and its
    split rows and inequalities substituted. *)
type phase1 =
  | Solved of {
      sigma : subst;
      splits : lin list;
      rows : lin list;
      kept : kept Lazy.t option;
          (** the first round's entries of [splits @ rows], when the
              Phase 1 serves more than one check *)
    }
  | Contradiction  (** the equalities alone are infeasible *)

let phase1 ~eqs ~ineqs =
  match solve_eqs eqs with
  | exception Infeasible -> Contradiction
  | sigma, splits ->
      let splits = split_rows sigma splits and rows = apply_rows sigma ineqs in
      Solved { sigma; splits; rows; kept = Some (lazy (keep splits rows)) }

(** Phase 1 of the component's equalities followed by [d]: [d] is
    reached under the kept substitution, and a variable it is solved for
    is substituted into the kept rows (by linearity, the rows of the
    composed substitution). It serves one check, so it keeps no
    entries. *)
let extend_phase1 (p : phase1) (d : lin) =
  match p with
  | Contradiction -> Contradiction
  | Solved ({ sigma; splits; rows; _ } as s) -> (
      match solve_eq sigma d with
      | exception Infeasible -> Contradiction
      | Dropped -> p
      | Split e ->
          Solved
            { s with splits = e :: lin_scale (-1) e :: splits; kept = None }
      | Solved_for (x, rhs) ->
          let sub = lin_subst x rhs in
          Solved
            {
              sigma = compose sigma x rhs;
              splits = List.map sub splits;
              rows = List.map sub rows;
              kept = None;
            })

(** [fm] on a component's Phase 1 with the rows a case or a final
    inequality adds, under its substitution: [g] first among the
    inequalities and [extra] after them. This is [fm (elim_eqs eqs (g
    :: ineqs @ extra))], from the kept first round when there is one. *)
let decide_phase1 (p : phase1) (g : lin option) (extra : lin list) =
  match p with
  | Contradiction -> false
  | Solved { sigma; splits; rows; kept } -> (
      let g = Option.map (lin_apply sigma) g in
      let extra = List.map (lin_apply sigma) extra in
      try
        match kept with
        | Some k -> fm_kept (Lazy.force k) g extra
        | None -> fm (splits @ Option.to_list g @ rows @ extra)
      with Infeasible -> false)

(** A component of a context: its Phase 1, and its verdict alone. *)
type component = { phase1 : phase1 Lazy.t; verdict : bool Lazy.t }

(* Prepared weakening hypotheses add to peak memory, so the split is
   kept flat: beside the variable table, each constraint's variable
   numbers and each variable's component root, in arrays. Each
   component's Phase 1 is done the first time a query decides that
   component, from lists grouped out of those arrays, and so is its
   verdict alone. *)
type context = {
  c_eqs : lin array;  (** input order *)
  c_ineqs : lin array;
  c_diseqs : lin list;
  c_bad : bool;  (** a constant equality or inequality is false *)
  c_split : components;  (** of [c_eqs] and [c_ineqs] *)
  c_roots : int array;  (** the components' roots, ascending *)
  c_comps : component array Lazy.t;  (** by position in [c_roots] *)
}

let context_of ~eqs ~ineqs ~diseqs : context =
  let c_eqs = Array.of_list eqs and c_ineqs = Array.of_list ineqs in
  let s = components ~eqs:c_eqs ~ineqs:c_ineqs in
  let n = Array.length s.root in
  let used = Array.make n false in
  let mark =
    Array.iter (fun vs ->
        if Array.length vs > 0 then used.(s.root.(vs.(0))) <- true)
  in
  mark s.eq_vars;
  mark s.ineq_vars;
  let c_roots =
    Array.of_list (List.filter (Array.get used) (List.init n Fun.id))
  in
  let c_comps =
    lazy
      (let geqs = Array.make n [] and gineqs = Array.make n [] in
       collect geqs ~slot:Fun.id c_eqs s.eq_vars s.root;
       collect gineqs ~slot:Fun.id c_ineqs s.ineq_vars s.root;
       Array.map
         (fun r ->
           let eqs = geqs.(r) and ineqs = gineqs.(r) in
           let phase1 = lazy (phase1 ~eqs ~ineqs) in
           { phase1; verdict = lazy (decide_phase1 (Lazy.force phase1) None []) })
         c_roots)
  in
  {
    c_eqs;
    c_ineqs;
    c_diseqs = diseqs;
    c_bad = constant_contradiction ~eqs ~ineqs;
    c_split = s;
    c_roots;
    c_comps;
  }

let context (lits : literal list) : context =
  let eqs, ineqs, diseqs = partition lits in
  context_of ~eqs ~ineqs ~diseqs

(** The position of the component rooted at [r] in [c.c_roots]. *)
let root_index c r =
  let rec search lo hi =
    let mid = (lo + hi) / 2 in
    let o = compare r c.c_roots.(mid) in
    if o = 0 then mid else if o < 0 then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length c.c_roots)

(** A component of the system with the new rows: the context components
    it merges, the case rows it holds (last first), and whether it holds
    the leading equality and the final inequality. It is named by its
    root. *)
type group = {
  g_root : int;
  mutable g_comps : int list;
  mutable g_rows : lin list;
  mutable g_lead : bool;
  mutable g_final : bool;
}

(** Decide [gr], a group of {!decide_split}'s system: from the Phase 1 of
    the context component it holds, extended by [lead] and with [g] and
    its case rows added, or, when it merges two or more, by Phase 1
    anew. [early] says the system has a leading equality or case rows. *)
let decide_group (c : context) (comps : component array) ~early ?lead
    (g : lin option) (gr : group) : bool =
  let s = c.c_split in
  let g = if gr.g_final then g else None in
  let lead = if gr.g_lead then lead else None in
  match gr.g_comps with
  | ([] | [ _ ]) as roots ->
      if not early then Profile.incr "lia.phase1_prepared";
      let p =
        match roots with
        | r :: _ -> Lazy.force comps.(root_index c r).phase1
        | [] ->
            Solved { sigma = SMap.empty; splits = []; rows = []; kept = None }
      in
      let p = Option.fold ~none:p ~some:(extend_phase1 p) lead in
      decide_phase1 p g gr.g_rows
  | roots ->
      if not early then Profile.incr "lia.phase1_rebuilt";
      let geqs = [| [] |] and gineqs = [| [] |] in
      let slot r = if List.mem r roots then 0 else -1 in
      collect geqs ~slot c.c_eqs s.eq_vars s.root;
      collect gineqs ~slot c.c_ineqs s.ineq_vars s.root;
      decide_component
        ~eqs:(geqs.(0) @ Option.to_list lead)
        ~ineqs:(Option.to_list g @ gineqs.(0) @ gr.g_rows)

(** The groups of [lead] (an equality to check), [cs] (the rows of a
    disequality case) and [g] (a final inequality) as {!components}
    would root them in [feasible ~eqs:(lead @ eqs) ~ineqs:(cs @ ineqs @
    g)], in the order of their ranks; the context components they touch;
    and the rank of a root.

    The new rows are numbered as {!components} would: [lead]'s
    variables first, then the equalities', then those of [cs] in order
    of first occurrence, then the inequalities', then [g]'s fresh ones.
    A component is ranked by its root under that numbering. Roots come
    from the union-find. A component that neither [lead] nor [cs]
    touches keeps its context root, and [g] joins last. The joins of the
    components [lead] or [cs] touches are replayed in the reference
    order — [lead], equalities, [cs], inequalities, [g] — since theirs
    come before the inequalities' and can move a root; with one context
    component and no fresh variable there is no order to find, and no
    replay. *)
let joined_groups ?lead (c : context) (cs : lin list) (g : lin option) =
  let s = c.c_split in
  let n = Array.length s.root in
  (* a fresh variable gets the next number; [early] ranks the variables
     of [lead], [first] those of [cs], by first occurrence *)
  let fresh = ref [] and next = ref n in
  let early = ref [] and first = ref [] in
  let number rank x =
    let v =
      match Hashtbl.find_opt s.ids x with
      | Some v -> v
      | None -> (
          match List.assoc_opt x !fresh with
          | Some v -> v
          | None ->
              let v = !next in
              incr next;
              fresh := (x, v) :: !fresh;
              v)
    in
    (match rank with
    | Some r when not (List.mem_assoc v !r) -> r := (v, List.length !r) :: !r
    | _ -> ());
    v
  in
  let lead_vars = Option.map (var_ids (number (Some early))) lead in
  let cs_vars = List.map (var_ids (number (Some first))) cs in
  let g_vars = Option.map (var_ids (number None)) g in
  let roots acc vs =
    Array.fold_left
      (fun acc v ->
        if v < n && not (List.mem s.root.(v) acc) then s.root.(v) :: acc
        else acc)
      acc vs
  in
  let by_early = List.fold_left roots [] (Option.to_list lead_vars @ cs_vars) in
  let touched = Option.fold ~none:by_early ~some:(roots by_early) g_vars in
  let replay = by_early <> [] && (Array.length c.c_roots > 1 || !next > n) in
  let parent =
    Array.init !next (fun v ->
        if v >= n then v
        else
          let r = s.root.(v) in
          if replay && List.mem r by_early then v else r)
  in
  let join_touched vars =
    if replay then
      Array.iter
        (fun vs ->
          if Array.length vs > 0 && List.mem s.root.(vs.(0)) by_early then
            join parent vs)
        vars
  in
  Option.iter (join parent) lead_vars;
  join_touched s.eq_vars;
  List.iter (join parent) cs_vars;
  join_touched s.ineq_vars;
  Option.iter (join parent) g_vars;
  let groups = ref [] in
  let group v =
    let r = find parent v in
    match List.find_opt (fun gr -> gr.g_root = r) !groups with
    | Some gr -> gr
    | None ->
        let gr =
          { g_root = r; g_comps = []; g_rows = []; g_lead = false; g_final = false }
        in
        groups := gr :: !groups;
        gr
  in
  List.iter
    (fun r ->
      let gr = group r in
      gr.g_comps <- r :: gr.g_comps)
    touched;
  Option.iter (fun vs -> (group vs.(0)).g_lead <- true) lead_vars;
  List.iter2
    (fun l vs ->
      let gr = group vs.(0) in
      gr.g_rows <- l :: gr.g_rows)
    cs cs_vars;
  Option.iter (fun vs -> (group vs.(0)).g_final <- true) g_vars;
  let l = List.length !early and e = s.eq_nvars and k = List.length !first in
  let rank v =
    match List.assoc_opt v !early with
    | Some i -> i
    | None -> (
        if v < e then l + v
        else
          match List.assoc_opt v !first with
          | Some i -> l + e + i
          | None -> l + e + k + v)
  in
  let groups =
    List.sort (fun a b -> compare (rank a.g_root) (rank b.g_root)) !groups
  in
  (groups, touched, rank)

(** [feasible ~eqs:(lead @ eqs) ~ineqs:(cs @ ineqs @ g)] for the
    context's equalities [eqs] and inequalities [ineqs], from the
    context's split: the same components, decided from the same rows in
    the same order, up to the first infeasible one. [lead], [cs] and [g]
    add rows, none of them constant. A context component that none
    touches is decided alone, from its kept verdict: its first check
    decides it, and every later one reads the verdict, since the
    component's rows do not change.

    A group of new rows holding at most one context component is decided
    from that component's Phase 1, extended by [lead] (the last of the
    group's equalities, as they are listed in reverse input order), as
    [splits @ (σ g :: rows @ σ (rev cs_K))]; one merging two or more runs
    Phase 1 anew ({!decide_group}). The groups and their ranks come
    from {!joined_groups}. *)
let decide_split ?lead (c : context) (cs : lin list) (g : lin option) : bool =
  let comps = Lazy.force c.c_comps in
  let early = Option.is_some lead || cs <> [] in
  let groups, touched, rank =
    if early || Option.is_some g then joined_groups ?lead c cs g
    else ([], [], Fun.id)
  in
  let merges gr = List.compare_length_with gr.g_comps 1 > 0 in
  if early then
    Profile.incr
      (if List.exists merges groups then "lia.split_rebuilt"
       else "lia.split_prepared");
  let m = Array.length c.c_roots in
  let rec go i gs =
    if i < m && List.mem c.c_roots.(i) touched then go (i + 1) gs
    else
      match gs with
      | gr :: rest when i >= m || rank gr.g_root < rank c.c_roots.(i) ->
          decide_group c comps ~early ?lead g gr && go i rest
      | _ -> i >= m || (Lazy.force comps.(i).verdict && go (i + 1) gs)
  in
  go 0 groups

(* ------------------------------------------------------------------ *)
(* Satisfiability with disequalities                                   *)
(* ------------------------------------------------------------------ *)

(** Cap on the number of disequalities we case-split on. *)
let diseq_limit = 12

let le_neg1 d = { d with const = d.const + 1 } (* d ≤ -1 *)
let ge_1 d = { (lin_scale (-1) d) with const = 1 - d.const } (* d ≥ 1 *)

(** Satisfiability of a system with the disequalities [diseqs] (each
    [≠ 0]): [base ()] decides the system without them, [case cs] with
    the case rows [cs] (each [≤ 0], last first) before its inequalities,
    and [consistent d] with [d = 0] before its equalities.

    A disequality [d ≠ 0] is case-split into [d ≤ -1 ∨ d ≥ 1], pruning
    infeasible prefixes early. Up to four are split after [base]. Past
    four, a relevance filter runs first: [d ≠ 0] only constrains the
    system if [d = 0] is consistent with it, so the others are dropped
    (this covers the many negated congruence guards that Ackermannization
    produces). If at most [diseq_limit] critical ones remain they are
    split; otherwise each is refuted on its own — the system with [d ≤
    -1] and with [d ≥ 1] each infeasible — which over-approximates their
    joint satisfiability (sound for the validity checker). *)
let sat_parts ~diseqs ~(base : unit -> bool) ~(case : lin list -> bool)
    ~(consistent : lin -> bool) : bool =
  if List.exists (fun l -> lin_is_const l && l.const = 0) diseqs then false
  else begin
    let diseqs = List.filter (fun l -> not (lin_is_const l)) diseqs in
    let rec split acc = function
      | [] -> true
      | d :: rest ->
          (let c = le_neg1 d :: acc in
           case c && split c rest)
          || (let c = ge_1 d :: acc in
              case c && split c rest)
    in
    match diseqs with
    | [] -> base ()
    | _ when List.length diseqs <= 4 -> base () && split [] diseqs
    | _ ->
        base ()
        &&
        let critical = List.filter consistent diseqs in
        if List.length critical <= diseq_limit then split [] critical
        else
          not
            (List.exists
               (fun d -> (not (case [ le_neg1 d ])) && not (case [ ge_1 d ]))
               critical)
  end

(** {!sat_parts} on a context with the final inequality [g] (not
    constant) and the disequalities [diseqs]: the base, every case and
    every relevance check are decided from the context's split. *)
let sat_context (c : context) (g : lin option) diseqs =
  sat_parts ~diseqs
    ~base:(fun () -> (not c.c_bad) && decide_split c [] g)
    ~case:(fun cs -> decide_split c cs g)
    ~consistent:(fun d -> decide_split ~lead:d c [] g)

(** Satisfiability of [eqs = 0 ∧ ineqs ≤ 0 ∧ diseqs ≠ 0]: without a
    disequality to split, [feasible]; with one, through a context. *)
let sat_lists ~eqs ~ineqs ~diseqs =
  if List.for_all lin_is_const diseqs then
    (not (List.exists (fun d -> d.const = 0) diseqs)) && feasible ~eqs ~ineqs
  else sat_context (context_of ~eqs ~ineqs ~diseqs) None diseqs

let sat_literals (lits : literal list) : bool =
  let eqs, ineqs, diseqs = partition lits in
  sat_lists ~eqs ~ineqs ~diseqs

let sat_with (c : context) (extra : literal option) : bool =
  match extra with
  | Some (Eq0 g) ->
      (* a new equality is numbered before the inequalities: split anew *)
      Profile.incr "lia.phase1_rebuilt";
      sat_lists
        ~eqs:(Array.to_list c.c_eqs @ [ g ])
        ~ineqs:(Array.to_list c.c_ineqs) ~diseqs:c.c_diseqs
  | Some (Le0 g) when lin_is_const g ->
      g.const <= 0 && sat_context c None c.c_diseqs
  | Some (Le0 g) -> sat_context c (Some g) c.c_diseqs
  | Some (Ne0 d) -> sat_context c None (c.c_diseqs @ [ d ])
  | None -> sat_context c None c.c_diseqs
