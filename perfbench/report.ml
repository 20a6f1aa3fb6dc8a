(** Metrics: how the passes and request streams of a run become the
    named values BENCHMARK.json declares. *)

module Json = Flux_server.Json

type metric = {
  name : string;
  unit_ : string;
  value : float;
  samples : float list;  (** what [value] summarizes, for the record *)
}

let metric ?(samples = []) name unit_ value = { name; unit_; value; samples }
let ms s = 1000. *. s
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(** Per-layer metrics of the cold pass (every input checked from an
    empty cache): self time per layer averaged over the traced passes,
    so that the layers plus [cold.unattributed_ms] add up to the mean
    traced wall clock; exact counters of one pass; the tracing overhead
    against the untraced passes; allocation per untraced pass. *)
let cold_family ~(traced : Pass.t list) ~(untraced : Pass.t list) : metric list
    =
  let last = List.hd (List.rev traced) in
  let layer i = mean (List.map (fun (p : Pass.t) -> p.Pass.trace.(i)) traced) in
  let timer k = mean (List.map (fun (p : Pass.t) -> List.assoc k p.Pass.times) traced) in
  let count k = float_of_int (List.assoc k last.Pass.counts) in
  let wall = mean (List.map (fun (p : Pass.t) -> p.Pass.wall) traced) in
  let selfs = List.mapi (fun i _ -> layer i) Layers.layers in
  let walls ps = List.map (fun (p : Pass.t) -> p.Pass.wall) ps in
  let discharged = count "absint.discharged" in
  List.map2
    (fun (_, name) s -> metric ("cold." ^ name ^ "_ms") "ms" (ms s))
    Layers.layers selfs
  @ [
      metric "cold.smt_elab_ms" "ms" (ms (timer "solver.elab_s"));
      metric "cold.smt_dpll_ms" "ms" (ms (timer "solver.dpll_s"));
      metric "cold.wall_ms" "ms" (ms wall) ~samples:(List.map ms (walls traced));
      metric "cold.unattributed_ms" "ms"
        (ms (wall -. List.fold_left ( +. ) 0. selfs));
      metric "trace.overhead_pct" "%"
        (100.
        *. (Stats.median (walls traced) -. Stats.median (walls untraced))
        /. Stats.median (walls untraced));
      metric "smt.queries" "count" (count "solver.queries");
      metric "smt.cache_hits" "count" (count "solver.cache_hits");
      metric "smt.theory_checks" "count" (count "solver.theory_checks");
      metric "absint.discharged" "count" discharged;
      metric "absint.fallthrough" "count" (count "absint.fallthrough");
      metric "absint.discharge_ratio" "ratio"
        (discharged /. Float.max 1. (discharged +. count "absint.fallthrough"));
      metric "fixpoint.weaken_checks" "count" (count "fixpoint.weaken_checks");
      metric "fixpoint.reweaken_skipped" "count"
        (count "fixpoint.reweaken_skipped");
      metric "fixpoint.scc_count" "count" (count "fixpoint.scc_count");
      metric "fixpoint.final_checks" "count" (count "fixpoint.final_checks");
      metric "check.clauses" "count" (count "check.clauses");
      metric "check.kvars" "count" (count "check.kvars");
      metric "cert.cex" "count" (count "cert.cex");
      metric "gc.minor_mwords" "Mwords"
        (mean (List.map (fun (p : Pass.t) -> p.Pass.minor_words /. 1e6) untraced));
      metric "gc.major_collections" "count"
        (mean
           (List.map
              (fun (p : Pass.t) -> float_of_int p.Pass.major_collections)
              untraced));
    ]

(** Per-layer metrics of the warm pass (every input re-checked against
    the cache the cold checks filled). [request_walls] are the pass
    times a user sees: the in-process check for the cold workloads, the
    client round trips for the daemon ones, so on the daemon workloads
    [warm.unattributed_ms] is the server, framing and rendering cost. *)
let warm_family ~(traced : Pass.t list) ~(request_walls : float list) :
    metric list =
  let layer i = mean (List.map (fun (p : Pass.t) -> p.Pass.trace.(i)) traced) in
  let all_layers =
    List.fold_left ( +. ) 0. (List.mapi (fun i _ -> layer i) Layers.layers)
  in
  let request = Stats.median request_walls in
  [
    metric "warm.syntax_ms" "ms" (ms (layer (Layers.index Layers.Syntax)));
    metric "warm.genv_ms" "ms" (ms (layer (Layers.index Layers.Genv_build)));
    metric "warm.cache_key_ms" "ms" (ms (layer (Layers.index Layers.Cache_key)));
    metric "warm.cache_io_ms" "ms" (ms (layer (Layers.index Layers.Cache_io)));
    metric "warm.request_ms" "ms" (ms request)
      ~samples:(List.map ms request_walls);
    metric "warm.unattributed_ms" "ms" (ms (request -. all_layers));
    metric "cache.hits" "count"
      (float_of_int (List.hd traced).Pass.hits);
  ]

(** Daemon counter deltas over the measured window (zero on the cold
    workloads, which start no daemon). *)
let daemon_family ~served ~smt_queries ~mem_hits ~disk_hits : metric list =
  [
    metric "daemon.requests_served" "count" (float_of_int served);
    metric "daemon.smt_queries" "count" (float_of_int smt_queries);
    metric "daemon.mem_hits" "count" (float_of_int mem_hits);
    metric "daemon.disk_hits" "count" (float_of_int disk_hits);
  ]

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let to_json (m : metric) : Json.t =
  Json.Obj
    [
      ("name", Json.String m.name);
      ("unit", Json.String m.unit_);
      ("value", Json.Float m.value);
      ("samples", Json.List (List.map (fun x -> Json.Float x) m.samples));
    ]

let of_json (j : Json.t) : metric =
  let get k f = Option.get (Option.bind (Json.member k j) f) in
  {
    name = get "name" Json.get_string;
    unit_ = get "unit" Json.get_string;
    value = get "value" Json.get_float;
    samples = List.filter_map Json.get_float (get "samples" Json.get_list);
  }

(** The metrics object of the result line. *)
let result_metrics (ms : metric list) : Json.t =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
         ))
       ms)

(** The metrics object of the [--out] record: the value plus the order
    statistics of its samples. *)
let record_metrics (ms : metric list) : Json.t =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj
             ([ ("unit", Json.String m.unit_); ("value", Json.Float m.value) ]
             @
             if m.samples = [] then []
             else [ ("samples", Stats.summary m.samples) ]) ))
       ms)

let print (ms : metric list) =
  List.iter
    (fun m -> Printf.printf "  %-28s %14.4f %s\n" m.name m.value m.unit_)
    ms
