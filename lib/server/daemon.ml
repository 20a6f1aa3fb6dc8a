(** [fluxd]: the persistent verification daemon.

    One process listens on a Unix-domain socket; each accepted
    connection becomes a session on its own domain, handling a stream
    of framed requests ({!Protocol}). Work requests run through
    {!Exec.run} with the shared in-memory verdict tier ({!Memcache})
    installed, so a warm re-check of unchanged code replays entirely
    from memory — zero SMT queries, zero disk probes.

    Lifecycle invariants:

    - {e startup} claims the socket: a connectable socket means a live
      daemon (refuse to start); an unconnectable leftover path (crashed
      daemon, stray file) is stale and is removed along with its
      pidfile before binding;
    - a {e pidfile} ([SOCKET.pid]) is written after bind so [kill
      $(cat …)] and the tests can address the process;
    - {e drain}: SIGTERM/SIGINT (or a [shutdown] request) set one
      atomic flag; the accept loop stops taking connections, idle
      sessions close, in-flight requests run to completion and their
      responses are delivered, new requests on live sessions are
      rejected. The socket and pidfile are removed on the way out, so
      the next start needs no stale-cleanup. Every blocking wait
      ([select] on the listener and on each session) wakes at least
      every 0.5 s to observe the flag, which also makes delivery
      independent of which domain the signal lands on. *)

module Profile = Flux_smt.Profile
module Diag = Flux_engine.Diag

type config = { socket : string }

let pidfile_of socket = socket ^ ".pid"

let try_connect (socket : string) : Unix.file_descr option =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error (_, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      None

let remove_quiet p = try Sys.remove p with Sys_error _ -> ()

(** Refuse if a daemon answers on [socket]; otherwise clear any stale
    socket/pidfile so bind can succeed. *)
let claim_socket (socket : string) : (unit, string) result =
  if not (Sys.file_exists socket) then Ok ()
  else
    match try_connect socket with
    | Some fd ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (Printf.sprintf "fluxd: already running (socket %s)" socket)
    | None ->
        remove_quiet socket;
        remove_quiet (pidfile_of socket);
        Ok ()

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type state = {
  cfg : config;
  mem : Memcache.t;
  metrics : Metrics.t;
  draining : bool Atomic.t;
  started : float;
}

(** Is the peer of [fd] still connected? While a response is owed the
    client sends nothing, so a readable fd that yields 0 bytes on a
    peek is a hangup. Called concurrently from pool worker domains —
    both calls are stateless syscalls. *)
let client_alive (fd : Unix.file_descr) : bool =
  match Unix.select [ fd ] [] [] 0. with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | [], _, _ -> true
  | _ :: _, _, _ -> (
      match Unix.recv fd (Bytes.create 1) 0 1 [ Unix.MSG_PEEK ] with
      | 0 -> false
      | _ -> true
      | exception Unix.Unix_error (_, _, _) -> false)

let send_response fd (resp : Protocol.response) : unit =
  Protocol.write_frame fd (Protocol.encode_response resp)

let status_info (st : state) : Json.t =
  Json.Obj
    [
      ("pid", Json.Int (Unix.getpid ()));
      ("socket", Json.String st.cfg.socket);
      ("uptime_s", Json.Float (Unix.gettimeofday () -. st.started));
      ("draining", Json.Bool (Atomic.get st.draining));
      ("requests_served", Json.Int (Metrics.served st.metrics));
      ("memcache_entries", Json.Int (Memcache.size st.mem));
    ]

let metrics_info (st : state) : Json.t =
  match Metrics.to_json st.metrics with
  | Json.Obj fields ->
      Json.Obj
        (fields
        @ [
            ("pid", Json.Int (Unix.getpid ()));
            ("uptime_s", Json.Float (Unix.gettimeofday () -. st.started));
            ("memcache_entries", Json.Int (Memcache.size st.mem));
          ])
  | j -> j

(** Run one check/lint request. The session's domain-local profile is
    reset first, so the snapshot absorbed into {!Metrics} afterwards is
    exactly this request's counters. Raises {!Exec.Disconnected} if the
    client went away mid-run. *)
let handle_check (st : state) fd ~opts ~file ~source ~deadline_ms : unit =
  let t0 = Unix.gettimeofday () in
  Profile.reset ();
  let read =
    match source with
    | Some src -> fun () -> src
    | None -> fun () -> Diag.read_file file
  in
  let outcome =
    Exec.run ?deadline_ms
      ~check_alive:(fun () -> client_alive fd)
      opts ~file ~read
  in
  Metrics.record st.metrics
    ~meth:(Protocol.string_of_tool opts.Exec.tool)
    ~latency_s:(Unix.gettimeofday () -. t0)
    ~profile:(Profile.snapshot ());
  send_response fd
    (Protocol.Result
       { code = outcome.Exec.code; out = outcome.Exec.out; err = outcome.Exec.err })

(** Serve one connection until the client closes, shutdown, or drain.
    Raises when the session breaks (the client went away mid-request,
    a reply could not be written); the accept loop logs and counts it. *)
let handle_conn (st : state) (fd : Unix.file_descr) : unit =
  let reject () =
    send_response fd (Protocol.Error "fluxd: draining, request rejected")
  in
  let rec loop () =
    match Unix.select [ fd ] [] [] 0.5 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | [], _, _ -> if Atomic.get st.draining then () else loop ()
    | _ :: _, _, _ -> (
        match Protocol.read_frame fd with
        | Protocol.Eof -> ()
        | Protocol.Bad msg ->
            (* framing is lost; answer once and hang up *)
            send_response fd (Protocol.Error ("fluxd: bad frame: " ^ msg))
        | Protocol.Frame payload ->
            if Atomic.get st.draining then reject ()
            else (
              (match Protocol.decode_request payload with
              | Error msg -> send_response fd (Protocol.Error msg)
              | Ok (Protocol.Check { opts; file; source; deadline_ms }) -> (
                  match handle_check st fd ~opts ~file ~source ~deadline_ms with
                  | () -> ()
                  | exception Exec.Disconnected -> raise Exec.Disconnected
                  | exception e ->
                      send_response fd
                        (Protocol.Error
                           ("fluxd: internal error: " ^ Printexc.to_string e)))
              | Ok Protocol.Status ->
                  send_response fd (Protocol.Info (status_info st))
              | Ok Protocol.Metrics ->
                  send_response fd (Protocol.Info (metrics_info st))
              | Ok Protocol.Shutdown ->
                  send_response fd
                    (Protocol.Info (Json.Obj [ ("stopping", Json.Bool true) ]));
                  Atomic.set st.draining true);
              loop ()))
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The accept loop                                                     *)
(* ------------------------------------------------------------------ *)

(** [serve cfg]: claim the socket and serve until drained. Returns only
    after in-flight sessions finished and the socket/pidfile are
    removed. The caller's stdout/stderr are untouched (daemonized runs
    point them at /dev/null). *)
let serve (cfg : config) : (unit, string) result =
  match claim_socket cfg.socket with
  | Error _ as e -> e
  | Ok () -> (
      let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.bind lfd (Unix.ADDR_UNIX cfg.socket) with
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close lfd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "fluxd: cannot bind socket %s (%s)" cfg.socket
               (Unix.error_message e))
      | () ->
          Unix.listen lfd 64;
          let pidfile = pidfile_of cfg.socket in
          let oc = open_out pidfile in
          output_string oc (string_of_int (Unix.getpid ()));
          close_out oc;
          let st =
            {
              cfg;
              mem = Memcache.create ();
              metrics = Metrics.create ();
              draining = Atomic.make false;
              started = Unix.gettimeofday ();
            }
          in
          Memcache.install st.mem;
          let drain _ = Atomic.set st.draining true in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
          Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          (* finished sessions are joined opportunistically; [done_]
             flags let us join without blocking on live ones *)
          let sessions : (unit Domain.t * bool Atomic.t) list ref = ref [] in
          let reap ~blocking =
            sessions :=
              List.filter
                (fun (d, done_) ->
                  if blocking || Atomic.get done_ then (Domain.join d; false)
                  else true)
                !sessions
          in
          let rec accept_loop () =
            if Atomic.get st.draining then ()
            else
              match Unix.select [ lfd ] [] [] 0.5 with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
              | [], _, _ ->
                  reap ~blocking:false;
                  accept_loop ()
              | _ :: _, _, _ -> (
                  match Unix.accept lfd with
                  | exception Unix.Unix_error (_, _, _) -> accept_loop ()
                  | cfd, _ ->
                      reap ~blocking:false;
                      (* hard backstop well under the runtime's domain
                         limit: park on the oldest session if a client
                         storm outruns reaping *)
                      (match !sessions with
                      | (d, _) :: rest when List.length !sessions >= 64 ->
                          Domain.join d;
                          sessions := rest
                      | _ -> ());
                      let done_ = Atomic.make false in
                      let d =
                        Domain.spawn (fun () ->
                            Fun.protect
                              ~finally:(fun () ->
                                (try Unix.close cfd
                                 with Unix.Unix_error _ -> ());
                                Atomic.set done_ true)
                              (fun () ->
                                try handle_conn st cfd
                                with e ->
                                  (* only this session ends *)
                                  Metrics.conn_error st.metrics;
                                  Printf.eprintf "fluxd: session ended: %s\n%!"
                                    (Printexc.to_string e)))
                      in
                      sessions := !sessions @ [ (d, done_) ];
                      accept_loop ())
          in
          accept_loop ();
          (try Unix.close lfd with Unix.Unix_error _ -> ());
          reap ~blocking:true;
          remove_quiet cfg.socket;
          remove_quiet pidfile;
          Ok ())

(* ------------------------------------------------------------------ *)
(* Daemonization                                                       *)
(* ------------------------------------------------------------------ *)

type started =
  | Started of int  (** fresh daemon, its pid *)
  | Already_running

let wait_for_socket (socket : string) ~(timeout_s : float) : bool =
  let t0 = Unix.gettimeofday () in
  let rec poll () =
    match try_connect socket with
    | Some fd ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        true
    | None ->
        if Unix.gettimeofday () -. t0 > timeout_s then false
        else begin
          ignore (Unix.select [] [] [] 0.05);
          poll ()
        end
  in
  poll ()

let read_pid (socket : string) : int option =
  match Diag.read_file (pidfile_of socket) with
  | s -> int_of_string_opt (String.trim s)
  | exception Sys_error _ -> None

(** Start a background daemon on [socket] and return once it accepts
    connections. Double-forks (the daemon is reparented to init, no
    zombie for the caller to reap) with stdio on /dev/null. Must be
    called from a single-domain process — fork and domains don't mix. *)
let daemonize (cfg : config) : (started, string) result =
  match try_connect cfg.socket with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Ok Already_running
  | None -> (
      (match claim_socket cfg.socket with
      | Ok () -> ()
      | Error _ -> () (* raced with another starter; resolved below *));
      let mid = Unix.fork () in
      if mid = 0 then begin
        (* middle child: new session, then fork the real daemon *)
        ignore (Unix.setsid ());
        let pid2 = Unix.fork () in
        if pid2 > 0 then Unix._exit 0
        else begin
          (try
             let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
             Unix.dup2 null Unix.stdin;
             Unix.dup2 null Unix.stdout;
             Unix.dup2 null Unix.stderr;
             Unix.close null
           with Unix.Unix_error _ -> ());
          match serve cfg with
          | Ok () -> Unix._exit 0
          | Error _ -> Unix._exit 1
        end
      end
      else begin
        ignore (Unix.waitpid [] mid);
        if wait_for_socket cfg.socket ~timeout_s:10. then
          match read_pid cfg.socket with
          | Some pid -> Ok (Started pid)
          | None -> Ok Already_running (* lost a start race; daemon is up *)
        else
          Error
            (Printf.sprintf "fluxd: failed to start (socket %s not answering)"
               cfg.socket)
      end)
