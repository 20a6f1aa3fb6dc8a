(** Tests for the daemon subsystem ([lib/server]) and its engine-layer
    hooks: JSON and protocol codecs round-trip (property-tested),
    framing rejects truncated/oversized frames and foreign protocol
    versions, the in-memory verdict tier layers soundly over the disk
    cache, [--cache-dir] failures degrade with a diagnostic instead of
    a crash, and the daemon lifecycle behaves end-to-end — concurrent
    clients get output byte-identical to the plain CLI, deadlines
    expire without poisoning the session, SIGTERM drains cleanly,
    stale sockets are recovered, and a warm daemon re-check issues
    zero SMT queries. *)

module Json = Flux_server.Json
module Protocol = Flux_server.Protocol
module Exec = Flux_server.Exec
module Memcache = Flux_server.Memcache
module Metrics = Flux_server.Metrics
module Daemon = Flux_server.Daemon
module Client = Flux_server.Client
module Cache = Flux_engine.Cache
module Diag = Flux_engine.Diag
module Profile = Flux_smt.Profile

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let tmp_counter = ref 0

let fresh_tmp prefix =
  incr tmp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)

let fresh_dir prefix =
  let dir = fresh_tmp prefix in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let run_cmd exe args =
  let out = Filename.temp_file "flux-test" ".out" in
  let err = Filename.temp_file "flux-test" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" exe args (Filename.quote out)
         (Filename.quote err))
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let run_flux args = run_cmd "../bin/flux.exe" args
let run_prusti args = run_cmd "../bin/prusti.exe" args

let wait_until ?(timeout = 10.) f =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if f () then true
    else if Unix.gettimeofday () -. t0 > timeout then false
    else begin
      ignore (Unix.select [] [] [] 0.05);
      go ()
    end
  in
  go ()

(** Start a daemon on a fresh socket, run [f socket], and always tear
    the daemon down (graceful stop, then SIGKILL as a last resort so a
    failing test cannot leak a process into later tests). *)
let with_daemon f =
  let sock = fresh_tmp "fluxd-test" ^ ".sock" in
  let pidfile = sock ^ ".pid" in
  Fun.protect
    ~finally:(fun () ->
      ignore (run_flux (Printf.sprintf "daemon stop --socket %s" (Filename.quote sock)));
      (match int_of_string_opt (String.trim (try read_file pidfile with Sys_error _ -> "")) with
      | Some pid -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      | None -> ());
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ sock; pidfile ])
    (fun () ->
      let code, out, err =
        run_flux (Printf.sprintf "daemon start --socket %s" (Filename.quote sock))
      in
      Alcotest.(check int) ("daemon start: " ^ out ^ err) 0 code;
      f sock)

let sq = Filename.quote

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_gen : Json.t QCheck.Gen.t =
  let open QCheck.Gen in
  let finite_float =
    map (fun f -> if Float.is_finite f then f else 0.) float
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) finite_float;
        map (fun s -> Json.String s) (string_size (int_bound 20));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           oneof
             [
               scalar;
               map
                 (fun vs -> Json.List vs)
                 (list_size (int_bound 4) (self (n / 2)));
               map
                 (fun kvs -> Json.Obj kvs)
                 (list_size (int_bound 4)
                    (pair (string_size (int_bound 8)) (self (n / 2))));
             ])

let json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"JSON survives print-then-parse"
    (QCheck.make ~print:(fun j -> Json.to_string j) json_gen)
    (fun j ->
      Json.parse (Json.to_string j) = Ok j
      && Json.parse (Json.to_string ~pretty:true j) = Ok j)

let json_cases () =
  let rt s = Json.parse s in
  Alcotest.(check bool)
    "floats keep a decimal point" true
    (Json.to_string (Json.Float 1.0) = "1.0"
    && rt "1.0" = Ok (Json.Float 1.0)
    && rt "1" = Ok (Json.Int 1));
  Alcotest.(check bool)
    "\\u escapes decode to UTF-8" true
    (rt "\"A\\u00e9\\u20ac\"" = Ok (Json.String "A\xc3\xa9\xe2\x82\xac"));
  Alcotest.(check bool)
    "raw UTF-8 passes through verbatim" true
    (rt (Json.to_string (Json.String "Aé€")) = Ok (Json.String "Aé€"));
  Alcotest.(check bool)
    "trailing garbage rejected" true
    (Result.is_error (rt "{} x"));
  Alcotest.(check bool)
    "unterminated string rejected" true
    (Result.is_error (rt {|"abc|}));
  Alcotest.(check bool)
    "control characters round-trip" true
    (rt (Json.to_string (Json.String "a\nb\tc\x01d"))
    = Ok (Json.String "a\nb\tc\x01d"))

(** The non-finite-float satellite fix: [inf]/[-inf]/[nan] must print
    as [null] (never as bare words no parser accepts), containers
    holding them must stay parseable, and every {e finite} float —
    including signed zero, subnormals and extremes — must survive
    print-then-parse bit-exactly. *)
let json_nonfinite_floats () =
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "%h prints as null" f)
        "null"
        (Json.to_string (Json.Float f));
      Alcotest.(check string)
        (Printf.sprintf "%h pretty-prints as null" f)
        "null"
        (String.trim (Json.to_string ~pretty:true (Json.Float f))))
    [ infinity; neg_infinity; nan; -.nan ];
  Alcotest.(check bool) "document with non-finite floats reparses" true
    (Json.parse
       (Json.to_string
          (Json.Obj
             [ ("p99_ms", Json.Float nan); ("rate", Json.Float infinity) ]))
    = Ok (Json.Obj [ ("p99_ms", Json.Null); ("rate", Json.Null) ]))

(** Profile timers that went non-finite render as [null], so
    [Profile.to_json] stays a document {!Json.parse} accepts; function
    names needing escapes come back unchanged. *)
let profile_json_nonfinite () =
  Profile.reset ();
  let odd_fn = "f\"q\\b\nl\001" in
  Fun.protect ~finally:Profile.reset (fun () ->
      Profile.add_time "t.nan" nan;
      Profile.add_time "t.inf" infinity;
      Profile.add_time "t.ok" 0.5;
      Profile.with_fn odd_fn (fun () -> Profile.incr "c");
      match Json.parse (Json.to_string (Profile.to_json ())) with
      | Ok j ->
          let totals k = Option.bind (Json.member "totals" j) (Json.member k) in
          Alcotest.(check bool) "nan timer is null" true (totals "t.nan" = Some Json.Null);
          Alcotest.(check bool) "infinite timer is null" true
            (totals "t.inf" = Some Json.Null);
          Alcotest.(check bool) "finite timer kept" true
            (totals "t.ok" = Some (Json.Float 0.5));
          Alcotest.(check bool) "escaped function name round-trips" true
            (Option.bind (Json.member "functions" j) (Json.member odd_fn)
            = Some (Json.Obj [ ("c", Json.Int 1) ]))
      | Error e -> Alcotest.fail ("Profile.to_json does not parse: " ^ e))

let json_finite_floats_bitexact () =
  List.iter
    (fun f ->
      match Json.parse (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) ->
          Alcotest.(check int64)
            (Printf.sprintf "%h round-trips bit-exactly" f)
            (Int64.bits_of_float f) (Int64.bits_of_float g)
      | _ -> Alcotest.failf "%h did not re-parse as a float" f)
    [
      0.1;
      -0.0;
      4.94e-324 (* smallest subnormal *);
      2.2250738585072014e-308 (* smallest normal *);
      1.7976931348623157e308 (* largest finite *);
      3.141592653589793;
      -1e22;
      1.0000000000000002 (* 1 + ulp *);
    ]

(** The surrogate-pair satellite fix: astral-plane [\u] escape pairs
    decode to 4-byte UTF-8, and lone/mismatched surrogates are parse
    errors rather than silent garbage. *)
let json_surrogates () =
  let rt s = Json.parse s in
  let grin = "\xf0\x9f\x98\x80" (* U+1F600 *) in
  Alcotest.(check bool) "\\ud83d\\ude00 decodes to U+1F600" true
    (rt "\"\\ud83d\\ude00\"" = Ok (Json.String grin));
  Alcotest.(check bool) "boundary pair \\ud800\\udc00 is U+10000" true
    (rt "\"\\ud800\\udc00\"" = Ok (Json.String "\xf0\x90\x80\x80"));
  Alcotest.(check bool) "top pair \\udbff\\udfff is U+10FFFF" true
    (rt "\"\\udbff\\udfff\"" = Ok (Json.String "\xf4\x8f\xbf\xbf"));
  Alcotest.(check bool) "raw astral UTF-8 survives print-then-parse" true
    (rt (Json.to_string (Json.String grin)) = Ok (Json.String grin));
  Alcotest.(check bool) "mixed text around the pair survives" true
    (rt "\"a\\ud83d\\ude00z\"" = Ok (Json.String ("a" ^ grin ^ "z")));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s rejected" (String.escaped s))
        true
        (Result.is_error (rt s)))
    [
      "\"\\ud83d\"" (* lone high at end *);
      "\"\\ud83dXY\"" (* high then plain chars *);
      "\"\\ud83d\\u0041\"" (* high then non-surrogate escape *);
      "\"\\ud83d\\ud83d\"" (* high then another high *);
      "\"\\udc00\"" (* lone low *);
      "\"x\\ude00y\"" (* lone low mid-string *);
    ]

(* ------------------------------------------------------------------ *)
(* Protocol codecs                                                     *)
(* ------------------------------------------------------------------ *)

let sample_opts =
  [
    Exec.default_opts Exec.Flux_check;
    {
      (Exec.default_opts Exec.Flux_lint) with
      Exec.quiet = true;
      times = true;
      jobs = 7;
      cache = false;
      cache_dir = "/tmp/weird dir/with spaces";
      format_json = true;
      passes = [ "vacuity"; "dead-store" ];
      all_passes = true;
    };
    { (Exec.default_opts Exec.Prusti_check) with Exec.dump_mir = true };
    { (Exec.default_opts Exec.Flux_check) with Exec.certify = true };
    {
      (Exec.default_opts Exec.Flux_check) with
      Exec.absint = false;
      absint_crosscheck = true;
    };
  ]

let sample_requests =
  Protocol.Status :: Protocol.Metrics :: Protocol.Shutdown
  :: List.concat_map
       (fun opts ->
         [
           Protocol.Check
             { opts; file = "a.rs"; source = None; deadline_ms = None };
           Protocol.Check
             {
               opts;
               file = "päth/δ.rs";
               source = Some "fn main() {}\n\x00\xff binary\n";
               deadline_ms = Some 1500;
             };
         ])
       sample_opts

let request_roundtrip () =
  List.iter
    (fun r ->
      match Protocol.decode_request (Protocol.encode_request r) with
      | Ok r' -> Alcotest.(check bool) "request round-trips" true (r = r')
      | Error e -> Alcotest.fail ("decode_request: " ^ e))
    sample_requests

let sample_responses =
  [
    Protocol.Result { code = 0; out = "all good\n"; err = "" };
    Protocol.Result
      { code = 3; out = ""; err = "flux: error: deadline of 5ms exceeded\n" };
    Protocol.Info
      (Json.Obj [ ("pid", Json.Int 42); ("uptime_s", Json.Float 0.25) ]);
    Protocol.Error "unsupported protocol version 9 (expected 1)";
  ]

let response_roundtrip () =
  List.iter
    (fun r ->
      match Protocol.decode_response (Protocol.encode_response r) with
      | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
      | Error e -> Alcotest.fail ("decode_response: " ^ e))
    sample_responses

let overlay_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"arbitrary overlay bytes survive the request codec"
    QCheck.(string)
    (fun src ->
      let r =
        Protocol.Check
          {
            opts = Exec.default_opts Exec.Flux_check;
            file = "f.rs";
            source = Some src;
            deadline_ms = None;
          }
      in
      Protocol.decode_request (Protocol.encode_request r) = Ok r)

let version_rejected () =
  let bump v =
    Printf.sprintf {|{"version":%d,"method":"status"}|} v
  in
  (match Protocol.decode_request (bump 99) with
  | Error msg ->
      Alcotest.(check bool)
        ("names the version: " ^ msg)
        true
        (String.length msg > 0
        && msg = "unsupported protocol version 99 (expected 1)")
  | Ok _ -> Alcotest.fail "version 99 accepted");
  match Protocol.decode_request {|{"method":"status"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing version accepted"

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let with_pipe f =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ r; w ])
    (fun () -> f r w)

let frame_label = function
  | Protocol.Eof -> "Eof"
  | Protocol.Frame s -> "Frame:" ^ s
  | Protocol.Bad m -> "Bad:" ^ m

let framing () =
  (* round trip, including the empty frame *)
  with_pipe (fun r w ->
      Protocol.write_frame w "hello";
      Protocol.write_frame w "";
      Alcotest.(check string) "frame" "Frame:hello" (frame_label (Protocol.read_frame r));
      Alcotest.(check string) "empty frame" "Frame:" (frame_label (Protocol.read_frame r)));
  (* clean close = Eof *)
  with_pipe (fun r w ->
      Unix.close w;
      Alcotest.(check string) "eof" "Eof" (frame_label (Protocol.read_frame r)));
  (* truncated header *)
  with_pipe (fun r w ->
      ignore (Unix.write w (Bytes.of_string "\x00\x00") 0 2);
      Unix.close w;
      Alcotest.(check string) "short header" "Bad:truncated frame header"
        (frame_label (Protocol.read_frame r)));
  (* truncated body *)
  with_pipe (fun r w ->
      ignore (Unix.write w (Bytes.of_string "\x00\x00\x00\x0aabc") 0 7);
      Unix.close w;
      Alcotest.(check string) "short body" "Bad:truncated frame body"
        (frame_label (Protocol.read_frame r)));
  (* oversized length is rejected before allocation *)
  with_pipe (fun r w ->
      ignore (Unix.write w (Bytes.of_string "\x7f\xff\xff\xff") 0 4);
      Unix.close w;
      match Protocol.read_frame r with
      | Protocol.Bad m ->
          Alcotest.(check bool) ("oversized: " ^ m) true
            (String.length m >= 9 && String.sub m 0 9 = "oversized")
      | o -> Alcotest.fail ("expected Bad, got " ^ frame_label o))

(* ------------------------------------------------------------------ *)
(* Cache tiers and cache-dir diagnostics                               *)
(* ------------------------------------------------------------------ *)

let entry = { Cache.e_kvars = 2; e_clauses = 5; e_time = 0.25 }

let counter key =
  match List.assoc_opt key (Profile.snapshot ()) with
  | Some (n, _, _) -> n
  | None -> 0

let memory_tier_layering () =
  let dir = fresh_dir "flux-server-cache" in
  Fun.protect
    ~finally:(fun () -> Cache.set_memory_tier None)
    (fun () ->
      (* no memory tier: store goes to disk, load is a disk hit *)
      Cache.set_memory_tier None;
      Profile.reset ();
      Cache.store ~dir "k1" entry;
      Alcotest.(check bool) "disk hit" true (Cache.load ~dir "k1" = Some entry);
      Alcotest.(check int) "disk counter" 1 (counter "cache.disk_hits");
      Alcotest.(check int) "no mem counter" 0 (counter "cache.mem_hits");
      (* install an empty memory tier: first load promotes from disk,
         second is a pure memory hit *)
      let mem = Memcache.create () in
      Memcache.install mem;
      Profile.reset ();
      Alcotest.(check bool) "promoting load" true (Cache.load ~dir "k1" = Some entry);
      Alcotest.(check int) "promotion was a disk hit" 1 (counter "cache.disk_hits");
      Alcotest.(check bool) "promoted" true (Memcache.size mem = 1);
      Sys.remove (Filename.concat dir "k1.entry");
      Alcotest.(check bool) "memory hit survives disk removal" true
        (Cache.load ~dir "k1" = Some entry);
      Alcotest.(check int) "mem counter" 1 (counter "cache.mem_hits");
      (* a fresh store lands in both tiers *)
      Cache.store ~dir "k2" entry;
      Alcotest.(check bool) "store hits memory" true (Memcache.size mem = 2);
      Alcotest.(check bool) "store hits disk" true
        (Sys.file_exists (Filename.concat dir "k2.entry"));
      Memcache.clear mem;
      Alcotest.(check bool) "clear empties the tier" true (Memcache.size mem = 0))

let ensure_dir_diagnostics () =
  (* parents are created *)
  let base = fresh_dir "flux-server-ensure" in
  let nested = Filename.concat (Filename.concat base "a") "b" in
  (match Cache.ensure_dir nested with
  | Ok () -> Alcotest.(check bool) "nested dir created" true (Sys.is_directory nested)
  | Error e -> Alcotest.fail ("ensure_dir: " ^ e));
  (* a path under a regular file cannot be created: readable error, no
     exception (chmod tricks don't work for root, ENOTDIR always does) *)
  let file = Filename.concat base "plainfile" in
  let oc = open_out file in
  output_string oc "x";
  close_out oc;
  match Cache.ensure_dir (Filename.concat file "sub") with
  | Ok () -> Alcotest.fail "ensure_dir under a regular file succeeded"
  | Error msg ->
      Alcotest.(check bool)
        ("mentions the cache directory: " ^ msg)
        true
        (String.length msg > 0
        && (let sub = "cache directory" in
            let rec find i =
              i + String.length sub <= String.length msg
              && (String.sub msg i (String.length sub) = sub || find (i + 1))
            in
            find 0))

let cli_bad_cache_dir () =
  let base = fresh_dir "flux-server-badcache" in
  let file = Filename.concat base "plainfile" in
  let oc = open_out file in
  output_string oc "x";
  close_out oc;
  let bad = Filename.concat file "sub" in
  let code, out, err =
    run_flux
      (Printf.sprintf "check --cache-dir %s ../examples/programs/init_zeros.rs"
         (sq bad))
  in
  Alcotest.(check int) "verification still succeeds" 0 code;
  Alcotest.(check bool) "rows printed" true
    (String.length out > 0);
  Alcotest.(check bool) ("warning on stderr: " ^ err) true
    (let has sub s =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
       go 0
     in
     has "warning" err && has "persistent cache disabled" err)

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let contains sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let lifecycle_start_status_stop () =
  let sock = fresh_tmp "fluxd-life" ^ ".sock" in
  Fun.protect
    ~finally:(fun () ->
      ignore (run_flux ("daemon stop --socket " ^ sq sock));
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ sock; sock ^ ".pid" ])
    (fun () ->
      let code, out, err = run_flux ("daemon start --socket " ^ sq sock) in
      Alcotest.(check int) ("daemon start: " ^ out ^ err) 0 code;
      Alcotest.(check bool) "start announces pid and socket" true
        (contains "fluxd: started" out);
      let code, out, _ = run_flux ("daemon status --socket " ^ sq sock) in
      Alcotest.(check int) "status while running" 0 code;
      (match Json.parse out with
      | Ok j ->
          Alcotest.(check bool) "status has pid" true
            (Option.bind (Json.member "pid" j) Json.get_int <> None);
          Alcotest.(check bool) "not draining" true
            (Option.bind (Json.member "draining" j) Json.get_bool = Some false)
      | Error e -> Alcotest.fail ("status JSON: " ^ e));
      let code, out, _ = run_flux ("daemon start --socket " ^ sq sock) in
      Alcotest.(check int) "second start is a no-op" 0 code;
      Alcotest.(check bool) "reports already running" true
        (contains "already running" out);
      let code, out, _ = run_flux ("daemon stop --socket " ^ sq sock) in
      Alcotest.(check int) "stop" 0 code;
      Alcotest.(check bool) "stop announces itself" true
        (contains "fluxd: stopped" out);
      Alcotest.(check bool) "socket removed by stop" true
        (wait_until (fun () -> not (Sys.file_exists sock)));
      let code, _, _ = run_flux ("daemon status --socket " ^ sq sock) in
      Alcotest.(check int) "status after stop fails" 1 code)

(** The pidfile is in place before the socket accepts. A foreground
    daemon is probed in a tight loop, so the first connection lands
    right after [listen]: the pidfile must already name the daemon.
    Then each [daemon start] must report the pid of the daemon it
    started, never take it for an older one ("already running"), and
    [daemon stop] must leave neither file behind. *)
let lifecycle_start_stop_loop () =
  let sock = fresh_tmp "fluxd-loop" ^ ".sock" in
  let pidfile = sock ^ ".pid" in
  Fun.protect
    ~finally:(fun () ->
      ignore (run_flux ("daemon stop --socket " ^ sq sock));
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ sock; pidfile ])
    (fun () ->
      let stop what =
        let code, out, _ = run_flux ("daemon stop --socket " ^ sq sock) in
        Alcotest.(check int) (what ^ ": stop") 0 code;
        Alcotest.(check bool) (what ^ ": stop announces itself") true
          (contains "fluxd: stopped" out);
        Alcotest.(check bool) (what ^ ": socket removed") true
          (wait_until (fun () -> not (Sys.file_exists sock)));
        Alcotest.(check bool) (what ^ ": pidfile removed before the socket")
          false (Sys.file_exists pidfile)
      in
      for i = 1 to 4 do
        let what = Printf.sprintf "foreground round %d" i in
        let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
        let pid =
          Unix.create_process "../bin/flux.exe"
            [| "../bin/flux.exe"; "daemon"; "start"; "--foreground";
               "--socket"; sock |]
            null null null
        in
        Unix.close null;
        let t0 = Unix.gettimeofday () in
        let rec probe () =
          match Daemon.try_connect sock with
          | Some fd -> Unix.close fd
          | None when Unix.gettimeofday () -. t0 < 10. -> probe ()
          | None -> Alcotest.failf "%s: daemon never accepted" what
        in
        probe ();
        Alcotest.(check (option string))
          (what ^ ": pidfile names the daemon at its first connection")
          (Some (string_of_int pid))
          (try Some (String.trim (read_file pidfile)) with Sys_error _ -> None);
        stop what;
        ignore (Unix.waitpid [] pid)
      done;
      for i = 1 to 4 do
        let what = Printf.sprintf "round %d" i in
        let code, out, err = run_flux ("daemon start --socket " ^ sq sock) in
        Alcotest.(check int) (what ^ ": start: " ^ out ^ err) 0 code;
        let pid = String.trim (read_file pidfile) in
        Alcotest.(check string) (what ^ ": start announces the pidfile's pid")
          (Printf.sprintf "fluxd: started (pid %s, socket %s)\n" pid sock)
          out;
        stop what
      done)

let byte_identity_cold_and_warm () =
  with_daemon (fun sock ->
      let f = "../examples/programs/init_zeros.rs" in
      (* cold vs cold, no cache *)
      let l = run_flux (Printf.sprintf "check --no-cache %s" f) in
      let d = run_flux (Printf.sprintf "check --daemon --socket %s --no-cache %s" (sq sock) f) in
      Alcotest.(check (triple int string string)) "check, no cache" l d;
      (* fresh parallel cache dirs: cold pass then warm pass must agree
         (the warm daemon answer comes from the memory tier, the warm
         local answer from disk — same bytes, including the footer's
         cache count) *)
      let dl = fresh_dir "flux-idl" and dd = fresh_dir "flux-idd" in
      let l1 = run_flux (Printf.sprintf "check --cache-dir %s %s" (sq dl) f) in
      let d1 = run_flux (Printf.sprintf "check --daemon --socket %s --cache-dir %s %s" (sq sock) (sq dd) f) in
      Alcotest.(check (triple int string string)) "check, cold cached pass" l1 d1;
      let l2 = run_flux (Printf.sprintf "check --cache-dir %s %s" (sq dl) f) in
      let d2 = run_flux (Printf.sprintf "check --daemon --socket %s --cache-dir %s %s" (sq sock) (sq dd) f) in
      Alcotest.(check (triple int string string)) "check, warm cached pass" l2 d2;
      Alcotest.(check bool) "warm pass states the cache hit" true
        (let _, out, _ = d2 in
         contains "from cache" out);
      (* a failing program: same rows, same exit code 1 *)
      let lf = run_flux "check --no-cache ../examples/programs/oob.rs" in
      let df = run_flux (Printf.sprintf "check --daemon --socket %s --no-cache ../examples/programs/oob.rs" (sq sock)) in
      Alcotest.(check (triple int string string)) "failing check" lf df;
      Alcotest.(check int) "failing exit code" 1 (let c, _, _ = lf in c);
      (* lint, text and json *)
      let ll = run_flux "lint --no-cache ../examples/lint/dead_store.rs" in
      let dl' = run_flux (Printf.sprintf "lint --daemon --socket %s --no-cache ../examples/lint/dead_store.rs" (sq sock)) in
      Alcotest.(check (triple int string string)) "lint text" ll dl';
      let lj = run_flux "lint --format json --no-cache ../examples/lint/dead_store.rs" in
      let dj = run_flux (Printf.sprintf "lint --format json --daemon --socket %s --no-cache ../examples/lint/dead_store.rs" (sq sock)) in
      Alcotest.(check (triple int string string)) "lint json" lj dj;
      (* prusti through the same daemon *)
      let lp = run_prusti (Printf.sprintf "check --no-cache %s" f) in
      let dp = run_prusti (Printf.sprintf "check --daemon --socket %s --no-cache %s" (sq sock) f) in
      Alcotest.(check (triple int string string)) "prusti check" lp dp)

let concurrent_clients () =
  with_daemon (fun sock ->
      let f = "../examples/programs/init_zeros.rs" in
      let g = "../examples/lint/dead_store.rs" in
      let a_out = Filename.temp_file "flux-conc" ".a" in
      let b_out = Filename.temp_file "flux-conc" ".b" in
      let a_code = a_out ^ ".code" and b_code = b_out ^ ".code" in
      let cmd =
        Printf.sprintf
          "( ../bin/flux.exe check --daemon --socket %s --no-cache %s > %s 2>&1; echo $? > %s ) & \
           ( ../bin/flux.exe lint --daemon --socket %s --no-cache %s > %s 2>&1; echo $? > %s ) & \
           wait"
          (sq sock) f (sq a_out) (sq a_code) (sq sock) g (sq b_out) (sq b_code)
      in
      Alcotest.(check int) "shell wait" 0 (Sys.command cmd);
      (* the daemon must have served both (no silent fallback) *)
      let _, m, _ = run_flux ("daemon metrics --socket " ^ sq sock) in
      (match Json.parse m with
      | Ok j ->
          Alcotest.(check bool) "daemon served both requests" true
            (Option.bind (Json.member "requests_served" j) Json.get_int
            = Some 2)
      | Error e -> Alcotest.fail ("metrics JSON: " ^ e));
      (* byte-identical to the sequential CLI *)
      let lc, lo, le = run_flux (Printf.sprintf "check --no-cache %s" f) in
      Alcotest.(check string) "concurrent check output" (lo ^ le) (read_file a_out);
      Alcotest.(check string) "concurrent check code" (string_of_int lc)
        (String.trim (read_file a_code));
      let gc, go, ge = run_flux (Printf.sprintf "lint --no-cache %s" g) in
      Alcotest.(check string) "concurrent lint output" (go ^ ge) (read_file b_out);
      Alcotest.(check string) "concurrent lint code" (string_of_int gc)
        (String.trim (read_file b_code));
      List.iter Sys.remove [ a_out; b_out; a_code; b_code ])

(** A burst of concurrent sessions alternating [--no-absint] and
    [--absint-crosscheck]: each session runs under its own flags (output
    byte-identical to the CLI with the same flags), and afterwards the
    daemon's own default is intact — a [--no-absint] request discharges
    nothing, a default one discharges again. *)
let concurrent_absint_flags () =
  with_daemon (fun sock ->
      let f = "../examples/programs/init_zeros.rs" in
      let flags i = if i mod 2 = 0 then "--no-absint" else "--absint-crosscheck" in
      let outs = List.init 4 (fun i -> Filename.temp_file "flux-flags" (string_of_int i)) in
      let cmd =
        String.concat " & "
          (List.mapi
             (fun i out ->
               Printf.sprintf
                 "( ../bin/flux.exe check --daemon --socket %s --no-cache %s %s > %s 2>&1 )"
                 (sq sock) (flags i) f (sq out))
             outs)
        ^ " & wait"
      in
      Alcotest.(check int) "shell wait" 0 (Sys.command cmd);
      List.iteri
        (fun i out ->
          let _, lo, le = run_flux (Printf.sprintf "check --no-cache %s %s" (flags i) f) in
          Alcotest.(check string) ("session " ^ flags i) (lo ^ le) (read_file out);
          Sys.remove out)
        outs;
      let metrics () =
        let _, m, _ = run_flux ("daemon metrics --socket " ^ sq sock) in
        match Json.parse m with
        | Ok j ->
            ( Option.bind (Json.member "requests_served" j) Json.get_int,
              match
                Option.bind (Json.member "counters" j) (Json.member "absint.discharged")
              with
              | Some (Json.Int n) -> n
              | _ -> 0 )
        | Error e -> Alcotest.fail ("metrics JSON: " ^ e)
      in
      let served, d0 = metrics () in
      Alcotest.(check (option int)) "daemon served the whole burst" (Some 4) served;
      let request flag =
        let code, _, _ =
          run_flux (Printf.sprintf "check --daemon --socket %s --no-cache %s %s" (sq sock) flag f)
        in
        Alcotest.(check int) ("request " ^ flag) 0 code
      in
      request "--no-absint";
      let _, d1 = metrics () in
      Alcotest.(check int) "--no-absint request discharges nothing" d0 d1;
      request "";
      let _, d2 = metrics () in
      Alcotest.(check bool) "default request still discharges" true (d2 > d1))

let deadline_does_not_poison () =
  with_daemon (fun sock ->
      let f = "../examples/programs/init_zeros.rs" in
      let code, _, err =
        run_flux
          (Printf.sprintf "check --daemon --socket %s --no-cache --deadline 0 %s"
             (sq sock) f)
      in
      Alcotest.(check int) "deadline exit code" Diag.exit_deadline code;
      Alcotest.(check bool) ("deadline message: " ^ err) true
        (contains "deadline of 0ms exceeded" err);
      (* the session and daemon stay healthy *)
      let code, _, _ =
        run_flux (Printf.sprintf "check --daemon --socket %s --no-cache %s" (sq sock) f)
      in
      Alcotest.(check int) "healthy request after timeout" 0 code;
      let _, m, _ = run_flux ("daemon metrics --socket " ^ sq sock) in
      match Json.parse m with
      | Ok j ->
          Alcotest.(check bool) "both requests were served by the daemon" true
            (Option.bind (Json.member "requests_served" j) Json.get_int = Some 2)
      | Error e -> Alcotest.fail ("metrics JSON: " ^ e))

let local_deadline () =
  (* the deadline also applies in-process, without --daemon *)
  let code, _, err =
    run_flux "check --no-cache --deadline 0 ../examples/programs/init_zeros.rs"
  in
  Alcotest.(check int) "local deadline exit code" Diag.exit_deadline code;
  Alcotest.(check bool) "local deadline message" true
    (contains "deadline of 0ms exceeded" err)

let sigterm_drain () =
  with_daemon (fun sock ->
      let pid =
        match int_of_string_opt (String.trim (read_file (sock ^ ".pid"))) with
        | Some p -> p
        | None -> Alcotest.fail "no pidfile"
      in
      let code, _, _ =
        run_flux
          (Printf.sprintf "check --daemon --socket %s --no-cache %s" (sq sock)
             "../examples/programs/init_zeros.rs")
      in
      Alcotest.(check int) "request before drain" 0 code;
      Unix.kill pid Sys.sigterm;
      Alcotest.(check bool) "socket removed after SIGTERM" true
        (wait_until (fun () -> not (Sys.file_exists sock)));
      Alcotest.(check bool) "pidfile removed after SIGTERM" true
        (wait_until (fun () -> not (Sys.file_exists (sock ^ ".pid")))))

let stale_socket_recovery () =
  let sock = fresh_tmp "fluxd-stale" ^ ".sock" in
  Fun.protect
    ~finally:(fun () ->
      ignore (run_flux ("daemon stop --socket " ^ sq sock));
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ sock; sock ^ ".pid" ])
    (fun () ->
      (* plant a stray file where the socket goes, plus a bogus pidfile *)
      let oc = open_out sock in
      output_string oc "junk";
      close_out oc;
      let oc = open_out (sock ^ ".pid") in
      output_string oc "999999";
      close_out oc;
      let code, out, err = run_flux ("daemon start --socket " ^ sq sock) in
      Alcotest.(check int) ("start over stale socket: " ^ out ^ err) 0 code;
      let code, _, _ = run_flux ("daemon status --socket " ^ sq sock) in
      Alcotest.(check int) "status after recovery" 0 code)

let auto_spawn_and_fallback () =
  let sock = fresh_tmp "fluxd-auto" ^ ".sock" in
  Fun.protect
    ~finally:(fun () ->
      ignore (run_flux ("daemon stop --socket " ^ sq sock));
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ sock; sock ^ ".pid" ])
    (fun () ->
      (* no daemon on this socket: --daemon must auto-start one *)
      let code, _, _ =
        run_flux
          (Printf.sprintf "check --daemon --socket %s --no-cache %s" (sq sock)
             "../examples/programs/init_zeros.rs")
      in
      Alcotest.(check int) "check auto-spawned a daemon" 0 code;
      let code, _, _ = run_flux ("daemon status --socket " ^ sq sock) in
      Alcotest.(check int) "daemon is now running" 0 code;
      (* library-level fallback: an unreachable socket with spawning
         disabled returns None (the CLI then checks in-process) *)
      let nowhere = fresh_tmp "fluxd-nowhere" ^ ".sock" in
      Alcotest.(check bool) "unreachable daemon falls back" true
        (Client.run ~spawn:Client.Never ~socket:nowhere
           (Exec.default_opts Exec.Flux_check)
           ~file:"../examples/programs/init_zeros.rs"
        = None))

let warm_daemon_zero_smt () =
  with_daemon (fun sock ->
      let f = "../examples/programs/init_zeros.rs" in
      let dir = fresh_dir "flux-warm" in
      let queries () =
        let _, m, _ = run_flux ("daemon metrics --socket " ^ sq sock) in
        match Json.parse m with
        | Ok j ->
            let c k =
              match Option.bind (Json.member "counters" j) (Json.member k) with
              | Some (Json.Int n) -> n
              | _ -> 0
            in
            (c "solver.queries", c "cache.mem_hits")
        | Error e -> Alcotest.fail ("metrics JSON: " ^ e)
      in
      let code, _, _ =
        run_flux
          (Printf.sprintf "check --daemon --socket %s --cache-dir %s %s"
             (sq sock) (sq dir) f)
      in
      Alcotest.(check int) "cold daemon check" 0 code;
      let q1, _ = queries () in
      Alcotest.(check bool) "cold pass used the solver" true (q1 > 0);
      let code, out, _ =
        run_flux
          (Printf.sprintf "check --daemon --socket %s --cache-dir %s %s"
             (sq sock) (sq dir) f)
      in
      Alcotest.(check int) "warm daemon check" 0 code;
      Alcotest.(check bool) "warm pass reports the cache" true
        (contains "from cache" out);
      let q2, mem2 = queries () in
      Alcotest.(check int) "warm pass issued zero SMT queries" q1 q2;
      Alcotest.(check bool) "warm pass hit the memory tier" true (mem2 > 0))

(** A client that hangs up halfway through a request frame breaks only
    its own session: fluxd counts it in [daemon.conn_errors] and the
    next client gets the same bytes as before. *)
let client_reset_mid_request () =
  with_daemon (fun sock ->
      let f = "../examples/programs/init_zeros.rs" in
      let check () =
        run_flux (Printf.sprintf "check --daemon --socket %s --no-cache %s" (sq sock) f)
      in
      let conn_errors () =
        let _, m, _ = run_flux ("daemon metrics --socket " ^ sq sock) in
        match Json.parse m with
        | Ok j -> (
            match Option.bind (Json.member "counters" j) (Json.member "daemon.conn_errors") with
            | Some (Json.Int n) -> n
            | _ -> 0)
        | Error e -> Alcotest.fail ("metrics JSON: " ^ e)
      in
      let before = check () in
      Alcotest.(check int) "no session error yet" 0 (conn_errors ());
      (match Daemon.try_connect sock with
      | None -> Alcotest.fail "cannot connect"
      | Some fd ->
          (* a header announcing 64 bytes, then 3 of them and a hangup:
             fluxd's reply to the truncated frame has no reader *)
          ignore (Unix.write_substring fd "\000\000\000\064abc" 0 7);
          Unix.close fd);
      Alcotest.(check bool) "the broken session is counted" true
        (wait_until (fun () -> conn_errors () = 1));
      Alcotest.(check (triple int string string)) "next client, same bytes" before (check ());
      Alcotest.(check int) "one session error in all" 1 (conn_errors ()))

let raw_socket_version_error () =
  with_daemon (fun sock ->
      match Daemon.try_connect sock with
      | None -> Alcotest.fail "cannot connect"
      | Some fd ->
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Protocol.write_frame fd {|{"version":9,"method":"status"}|};
              match Protocol.read_frame fd with
              | Protocol.Frame payload -> (
                  match Protocol.decode_response payload with
                  | Ok (Protocol.Error msg) ->
                      Alcotest.(check bool)
                        ("daemon rejects foreign versions: " ^ msg)
                        true
                        (contains "unsupported protocol version" msg)
                  | Ok _ -> Alcotest.fail "daemon accepted version 9"
                  | Error e -> Alcotest.fail ("response decode: " ^ e))
              | o -> Alcotest.fail ("expected a frame, got " ^ frame_label o)))

(* ------------------------------------------------------------------ *)
(* Metrics unit behavior                                               *)
(* ------------------------------------------------------------------ *)

let metrics_percentiles () =
  let m = Metrics.create () in
  for i = 1 to 100 do
    (* integer-second latencies: ×1000 is exact in float, so the
       percentile expectations below compare exactly *)
    Metrics.record m ~meth:"check" ~latency_s:(float_of_int i)
      ~profile:[ ("solver.queries", (3, 0., false)) ]
  done;
  match Metrics.to_json m with
  | Json.Obj fields ->
      let get path =
        match List.assoc_opt "latency" fields with
        | Some (Json.Obj lat) -> List.assoc_opt path lat
        | _ -> None
      in
      Alcotest.(check bool) "p50" true (get "p50_ms" = Some (Json.Float 50000.));
      Alcotest.(check bool) "p95" true (get "p95_ms" = Some (Json.Float 95000.));
      Alcotest.(check bool) "p99" true (get "p99_ms" = Some (Json.Float 99000.));
      Alcotest.(check bool) "served" true
        (List.assoc_opt "requests_served" fields = Some (Json.Int 100));
      Alcotest.(check bool) "counters accumulate" true
        (match List.assoc_opt "counters" fields with
        | Some (Json.Obj cs) -> List.assoc_opt "solver.queries" cs = Some (Json.Int 300)
        | _ -> false)
  | _ -> Alcotest.fail "metrics JSON is not an object"

let tests =
  ( "server",
    [
      QCheck_alcotest.to_alcotest json_roundtrip;
      Alcotest.test_case "JSON edge cases" `Quick json_cases;
      Alcotest.test_case "non-finite floats print as null" `Quick
        json_nonfinite_floats;
      Alcotest.test_case "non-finite profile timers print as null" `Quick
        profile_json_nonfinite;
      Alcotest.test_case "finite floats round-trip bit-exactly" `Quick
        json_finite_floats_bitexact;
      Alcotest.test_case "surrogate pairs decode, lone ones rejected" `Quick
        json_surrogates;
      Alcotest.test_case "protocol requests round-trip" `Quick request_roundtrip;
      Alcotest.test_case "protocol responses round-trip" `Quick response_roundtrip;
      QCheck_alcotest.to_alcotest overlay_roundtrip;
      Alcotest.test_case "foreign protocol versions rejected" `Quick version_rejected;
      Alcotest.test_case "framing: eof, truncation, oversize" `Quick framing;
      Alcotest.test_case "memory tier layers over the disk cache" `Quick memory_tier_layering;
      Alcotest.test_case "ensure_dir creates parents, explains failures" `Quick ensure_dir_diagnostics;
      Alcotest.test_case "CLI degrades gracefully on a bad --cache-dir" `Quick cli_bad_cache_dir;
      Alcotest.test_case "metrics: percentiles and counter absorption" `Quick metrics_percentiles;
      Alcotest.test_case "daemon start/status/stop lifecycle" `Quick lifecycle_start_status_stop;
      Alcotest.test_case "daemon output byte-identical to CLI" `Quick byte_identity_cold_and_warm;
      Alcotest.test_case "two concurrent clients, identical bytes" `Quick concurrent_clients;
      Alcotest.test_case "concurrent absint flags stay per session" `Quick concurrent_absint_flags;
      Alcotest.test_case "deadline expires without poisoning the session" `Quick deadline_does_not_poison;
      Alcotest.test_case "deadline applies in-process too" `Quick local_deadline;
      Alcotest.test_case "SIGTERM drains and cleans up" `Quick sigterm_drain;
      Alcotest.test_case "stale socket is recovered at start" `Quick stale_socket_recovery;
      Alcotest.test_case "auto-spawn on --daemon, fallback when unreachable" `Quick auto_spawn_and_fallback;
      Alcotest.test_case "warm daemon re-check issues zero SMT queries" `Quick warm_daemon_zero_smt;
      Alcotest.test_case "daemon answers foreign versions with an error" `Quick raw_socket_version_error;
      Alcotest.test_case "client reset mid-request is counted, next client served" `Quick
        client_reset_mid_request;
      Alcotest.test_case "daemon start/stop loop reports each fresh pid" `Quick
        lifecycle_start_stop_loop;
    ] )
