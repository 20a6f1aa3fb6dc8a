(** The daemon wire protocol: length-prefixed JSON frames with a
    versioned codec.

    Framing: every message is a 4-byte big-endian byte length followed
    by that many bytes of JSON. Frames above {!max_frame} are rejected
    before allocation (a malicious or corrupt length cannot OOM the
    daemon), and a short read anywhere is reported as a distinct
    [`Bad] outcome rather than confused with a clean [`Eof].

    Versioning: every message carries a top-level ["version"] field.
    {!decode_request} rejects any version other than {!version} with a
    message the daemon returns verbatim as an error response, so an old
    client talking to a new daemon (or vice versa) gets a diagnosis,
    not a parse failure — and the CLI client falls back to in-process
    checking on any error response, so mixed-version installs degrade
    to exactly the non-daemon behavior.

    The payload codecs are total inverses ([decode (encode x) = Ok x]),
    property-tested in [test/test_server.ml]. *)

let version = 1
let max_frame = 64 * 1024 * 1024

type request =
  | Check of {
      opts : Exec.opts;
      file : string;  (** display path, used verbatim in diagnostics *)
      source : string option;
          (** overlay contents; [None] = daemon reads [file] itself *)
      deadline_ms : int option;
    }
  | Status
  | Metrics
  | Shutdown

type response =
  | Result of { code : int; out : string; err : string }
      (** a completed check/lint: exit code plus rendered streams *)
  | Info of Json.t  (** status/metrics payload *)
  | Error of string
      (** protocol-level failure; the client should fall back *)

(* ------------------------------------------------------------------ *)
(* Codecs                                                              *)
(* ------------------------------------------------------------------ *)

let string_of_tool = function
  | Exec.Flux_check -> "check"
  | Exec.Prusti_check -> "prusti-check"
  | Exec.Flux_lint -> "lint"

let tool_of_string = function
  | "check" -> Some Exec.Flux_check
  | "prusti-check" -> Some Exec.Prusti_check
  | "lint" -> Some Exec.Flux_lint
  | _ -> None

let json_of_opts (o : Exec.opts) : Json.t =
  Json.Obj
    [
      ("tool", Json.String (string_of_tool o.Exec.tool));
      ("quiet", Json.Bool o.Exec.quiet);
      ("times", Json.Bool o.Exec.times);
      ("jobs", Json.Int o.Exec.jobs);
      ("cache", Json.Bool o.Exec.cache);
      ("cache_dir", Json.String o.Exec.cache_dir);
      ("certify", Json.Bool o.Exec.certify);
      ("absint", Json.Bool o.Exec.absint);
      ("absint_crosscheck", Json.Bool o.Exec.absint_crosscheck);
      ("dump_mir", Json.Bool o.Exec.dump_mir);
      ("dump_solution", Json.Bool o.Exec.dump_solution);
      ("format_json", Json.Bool o.Exec.format_json);
      ("passes", Json.List (List.map (fun p -> Json.String p) o.Exec.passes));
      ("all_passes", Json.Bool o.Exec.all_passes);
    ]

(* Decoding helpers: [let*] threads the first failure out. *)
let ( let* ) r f = Result.bind r f

let field j k get what =
  match Option.bind (Json.member k j) get with
  | Some v -> Ok v
  | None -> Result.Error (Printf.sprintf "missing or ill-typed field %S" what)

let opts_of_json (j : Json.t) : (Exec.opts, string) result =
  let* tool_s = field j "tool" Json.get_string "opts.tool" in
  let* tool =
    match tool_of_string tool_s with
    | Some t -> Ok t
    | None -> Result.Error (Printf.sprintf "unknown tool %S" tool_s)
  in
  let* quiet = field j "quiet" Json.get_bool "opts.quiet" in
  let* times = field j "times" Json.get_bool "opts.times" in
  let* jobs = field j "jobs" Json.get_int "opts.jobs" in
  let* cache = field j "cache" Json.get_bool "opts.cache" in
  let* cache_dir = field j "cache_dir" Json.get_string "opts.cache_dir" in
  let* certify = field j "certify" Json.get_bool "opts.certify" in
  let* absint = field j "absint" Json.get_bool "opts.absint" in
  let* absint_crosscheck =
    field j "absint_crosscheck" Json.get_bool "opts.absint_crosscheck"
  in
  let* dump_mir = field j "dump_mir" Json.get_bool "opts.dump_mir" in
  let* dump_solution =
    field j "dump_solution" Json.get_bool "opts.dump_solution"
  in
  let* format_json = field j "format_json" Json.get_bool "opts.format_json" in
  let* passes_j = field j "passes" Json.get_list "opts.passes" in
  let* passes =
    List.fold_right
      (fun p acc ->
        let* acc = acc in
        match Json.get_string p with
        | Some s -> Ok (s :: acc)
        | None -> Result.Error "ill-typed entry in opts.passes")
      passes_j (Ok [])
  in
  let* all_passes = field j "all_passes" Json.get_bool "opts.all_passes" in
  Ok
    {
      Exec.tool;
      quiet;
      times;
      jobs;
      cache;
      cache_dir;
      certify;
      absint;
      absint_crosscheck;
      dump_mir;
      dump_solution;
      format_json;
      passes;
      all_passes;
    }

let encode_request (r : request) : string =
  let fields =
    match r with
    | Check { opts; file; source; deadline_ms } ->
        [
          ("method", Json.String "check");
          ("opts", json_of_opts opts);
          ("file", Json.String file);
        ]
        @ (match source with
          | Some s -> [ ("source", Json.String s) ]
          | None -> [])
        @
        (match deadline_ms with
        | Some ms -> [ ("deadline_ms", Json.Int ms) ]
        | None -> [])
    | Status -> [ ("method", Json.String "status") ]
    | Metrics -> [ ("method", Json.String "metrics") ]
    | Shutdown -> [ ("method", Json.String "shutdown") ]
  in
  Json.to_string (Json.Obj (("version", Json.Int version) :: fields))

let check_version (j : Json.t) : (unit, string) result =
  match Option.bind (Json.member "version" j) Json.get_int with
  | Some v when v = version -> Ok ()
  | Some v ->
      Result.Error
        (Printf.sprintf "unsupported protocol version %d (expected %d)" v
           version)
  | None -> Result.Error "missing protocol version"

let decode_request (s : string) : (request, string) result =
  let* j = Json.parse s in
  let* () = check_version j in
  let* meth = field j "method" Json.get_string "method" in
  match meth with
  | "status" -> Ok Status
  | "metrics" -> Ok Metrics
  | "shutdown" -> Ok Shutdown
  | "check" ->
      let* opts_j =
        match Json.member "opts" j with
        | Some o -> Ok o
        | None -> Result.Error "missing field \"opts\""
      in
      let* opts = opts_of_json opts_j in
      let* file = field j "file" Json.get_string "file" in
      let source = Option.bind (Json.member "source" j) Json.get_string in
      let deadline_ms =
        Option.bind (Json.member "deadline_ms" j) Json.get_int
      in
      Ok (Check { opts; file; source; deadline_ms })
  | m -> Result.Error (Printf.sprintf "unknown method %S" m)

let encode_response (r : response) : string =
  let fields =
    match r with
    | Result { code; out; err } ->
        [
          ("status", Json.String "result");
          ("code", Json.Int code);
          ("out", Json.String out);
          ("err", Json.String err);
        ]
    | Info j -> [ ("status", Json.String "info"); ("info", j) ]
    | Error msg ->
        [ ("status", Json.String "error"); ("message", Json.String msg) ]
  in
  Json.to_string (Json.Obj (("version", Json.Int version) :: fields))

let decode_response (s : string) : (response, string) result =
  let* j = Json.parse s in
  let* () = check_version j in
  let* status = field j "status" Json.get_string "status" in
  match status with
  | "result" ->
      let* code = field j "code" Json.get_int "code" in
      let* out = field j "out" Json.get_string "out" in
      let* err = field j "err" Json.get_string "err" in
      Ok (Result { code; out; err })
  | "info" -> (
      match Json.member "info" j with
      | Some i -> Ok (Info i)
      | None -> Result.Error "missing field \"info\"")
  | "error" ->
      let* msg = field j "message" Json.get_string "message" in
      Ok (Error msg)
  | s -> Result.Error (Printf.sprintf "unknown status %S" s)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n =
      try Unix.write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (off + n) (len - n)
  end

let write_frame (fd : Unix.file_descr) (payload : string) : unit =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Protocol.write_frame: oversized frame";
  write_all fd
    (String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xff)))
    0 4;
  (* straight from the string: a reply is often larger than a minor
     heap block, so a copy would go to the major heap every time *)
  write_all fd payload 0 n

type read_outcome =
  | Eof  (** clean close before any header byte *)
  | Frame of string
  | Bad of string  (** truncated or oversized frame: unrecoverable *)

(* Read exactly [len] bytes; [`Eof] only if the very first read at
   offset 0 hits end-of-stream. *)
let read_exact fd len : [ `Ok of bytes | `Eof | `Short ] =
  let buf = Bytes.create len in
  let rec go off =
    if off >= len then `Ok buf
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> if off = 0 then `Eof else `Short
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame (fd : Unix.file_descr) : read_outcome =
  match read_exact fd 4 with
  | `Eof -> Eof
  | `Short -> Bad "truncated frame header"
  | `Ok hdr ->
      let len =
        (Bytes.get_uint8 hdr 0 lsl 24)
        lor (Bytes.get_uint8 hdr 1 lsl 16)
        lor (Bytes.get_uint8 hdr 2 lsl 8)
        lor Bytes.get_uint8 hdr 3
      in
      if len > max_frame then
        Bad (Printf.sprintf "oversized frame (%d bytes > %d max)" len max_frame)
      else if len = 0 then Frame ""
      else begin
        match read_exact fd len with
        | `Ok b -> Frame (Bytes.unsafe_to_string b)
        | `Eof | `Short -> Bad "truncated frame body"
      end
