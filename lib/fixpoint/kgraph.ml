(** The Horn κ-dependency graph and its SCC decomposition.

    A clause [∀xs. hyps ⇒ κ(es)] makes the solution of [κ] depend on
    the solution of every κ' occurring in [hyps]: weakening κ' can
    weaken the clause's left-hand side and hence force further
    weakening of κ. {!build} materializes that graph (an edge κ' → κ
    per such clause), runs Tarjan's strongly-connected-components
    algorithm over it, and lays the SCCs out in topological order as
    {e slices} — the unit of scheduling for the incremental solver in
    {!Solve} and for the engine's per-SCC work items.

    Each slice carries the κ-headed clauses of its SCC, the
    concrete-head clauses that become checkable once the SCC is solved
    (all their κ hypotheses are final), the direct predecessor slices,
    and a dependency level ([sl_level]): slices of equal level never
    read each other's κs, so they may be solved concurrently once every
    lower level is applied.

    Slice 0 is a synthetic root holding the κ-free concrete-head
    clauses; it declares no κs and depends on nothing. Clause indices
    ([int] paired with each clause) are positions in the input list, so
    failure reports can be re-sorted into the exact order the reference
    sweep ([Flux_fuzz.Reference]) reports them in.

    Undeclared κs in hypothesis position are ignored (the solver treats
    them as ⊤, see {!Solve.apply_hyp}); heads are assumed declared —
    {!Solve} rejects undeclared heads before building the graph. *)

type slice = {
  sl_id : int;  (** index into {!t.slices}; also the topological rank *)
  sl_kvars : string list;  (** κs of this SCC ([[]] for the root slice) *)
  sl_kclauses : (int * Horn.clause) list;
      (** κ-headed clauses whose head κ is in this SCC, input order *)
  sl_cclauses : (int * Horn.clause) list;
      (** concrete-head clauses whose last κ hypothesis is in this SCC *)
  sl_deps : int list;  (** direct predecessor slice ids, sorted *)
  sl_ext_kvars : string list;
      (** declared κs read from earlier slices, sorted — the external
          solution material a slice's solve depends on *)
  sl_level : int;
      (** longest dependency chain; equal levels are independent *)
}

type t = {
  slices : slice array;
      (** topological order: every dependency of [slices.(i)] has a
          smaller index *)
  scc_of : (string, int) Hashtbl.t;  (** κ name → owning slice id *)
  n_sccs : int;  (** real SCCs, excluding the synthetic root slice *)
}

let hyp_kvars (declared : (string, 'a) Hashtbl.t) (cl : Horn.clause) :
    string list =
  List.filter_map
    (function
      | Horn.Kapp (k, _) when Hashtbl.mem declared k -> Some k
      | Horn.Kapp _ | Horn.Conc _ -> None)
    cl.Horn.hyps
  |> List.sort_uniq String.compare

(** Tarjan over the κ nodes. Nodes are visited in declaration order and
    successors in first-mention order, so the SCC layout is a pure
    function of the input. Tarjan emits an SCC only after every SCC
    reachable from it; reversing the emission order therefore yields
    dependencies-first. *)
let tarjan (nodes : string array) (succs : string -> string list) :
    string list list =
  let n = Array.length nodes in
  let index_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i k -> Hashtbl.replace index_of k i) nodes;
  let idx = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next = ref 0 in
  let sccs = ref [] in
  let rec visit v =
    idx.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun k ->
        let w = Hashtbl.find index_of k in
        if idx.(w) < 0 then begin
          visit w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) idx.(w))
      (succs nodes.(v));
    if low.(v) = idx.(v) then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then nodes.(w) :: acc else pop (nodes.(w) :: acc)
        | [] -> assert false
      in
      sccs := pop [] :: !sccs
    end
  in
  Array.iteri (fun v _ -> if idx.(v) < 0 then visit v) nodes;
  (* [!sccs] is already reversed emission order = topological order *)
  !sccs

let build ~(kvars : Horn.kvar list) (clauses : Horn.clause list) : t =
  let declared : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun kv -> Hashtbl.replace declared kv.Horn.kname ()) kvars;
  let indexed = List.mapi (fun i cl -> (i, cl)) clauses in
  (* adjacency: κ → successors (first-mention order, deduplicated) *)
  let succ_tbl : (string, string list ref) Hashtbl.t = Hashtbl.create 16 in
  let add_edge src dst =
    let l =
      match Hashtbl.find_opt succ_tbl src with
      | Some l -> l
      | None ->
          let l = ref [] in
          Hashtbl.add succ_tbl src l;
          l
    in
    if not (List.mem dst !l) then l := dst :: !l
  in
  List.iter
    (fun (_, cl) ->
      match cl.Horn.head with
      | Horn.Kapp (k, _) ->
          List.iter (fun k' -> add_edge k' k) (hyp_kvars declared cl)
      | Horn.Conc _ -> ())
    indexed;
  let nodes = Array.of_list (List.map (fun kv -> kv.Horn.kname) kvars) in
  let succs k =
    match Hashtbl.find_opt succ_tbl k with
    | Some l -> List.rev !l
    | None -> []
  in
  let sccs = tarjan nodes succs in
  let scc_of = Hashtbl.create 16 in
  List.iteri
    (fun i ks -> List.iter (fun k -> Hashtbl.replace scc_of k (i + 1)) ks)
    sccs;
  let n_sccs = List.length sccs in
  let kcls = Array.make (n_sccs + 1) [] in
  let ccls = Array.make (n_sccs + 1) [] in
  List.iter
    (fun (i, cl) ->
      match cl.Horn.head with
      | Horn.Kapp (k, _) ->
          let s = Hashtbl.find scc_of k in
          kcls.(s) <- (i, cl) :: kcls.(s)
      | Horn.Conc _ ->
          let s =
            List.fold_left
              (fun acc k -> max acc (Hashtbl.find scc_of k))
              0 (hyp_kvars declared cl)
          in
          ccls.(s) <- (i, cl) :: ccls.(s))
    indexed;
  let kvar_lists = Array.of_list ([] :: sccs) in
  let levels = Array.make (n_sccs + 1) 0 in
  let slices =
    Array.init (n_sccs + 1) (fun s ->
        let own = kvar_lists.(s) in
        let ext = Hashtbl.create 8 in
        List.iter
          (fun (_, cl) ->
            List.iter
              (fun k ->
                if not (List.mem k own) then Hashtbl.replace ext k ())
              (hyp_kvars declared cl))
          (kcls.(s) @ ccls.(s));
        let ext_kvars =
          Hashtbl.fold (fun k () acc -> k :: acc) ext []
          |> List.sort String.compare
        in
        let deps =
          List.map (fun k -> Hashtbl.find scc_of k) ext_kvars
          |> List.sort_uniq compare
        in
        let level =
          List.fold_left (fun acc d -> max acc (levels.(d) + 1)) 0 deps
        in
        levels.(s) <- level;
        {
          sl_id = s;
          sl_kvars = own;
          sl_kclauses = List.rev kcls.(s);
          sl_cclauses = List.rev ccls.(s);
          sl_deps = deps;
          sl_ext_kvars = ext_kvars;
          sl_level = level;
        })
  in
  { slices; scc_of; n_sccs }
