(* served_mix: one client process drives a compo-server child process over
   its Unix socket.  Each connection owns one partition of the design, so
   the model predicts every reply despite the interleaving. *)

open Compo_core
module Client = Compo_net.Client
module Journal = Compo_storage.Journal
module Json = Compo_obs.Json_min
open Script
open Local

let sizes parts =
  {
    Design.parts; pin_ifaces = 1500; ifaces = 100; impls = 600; subgates = 1; probes = 1200;
    chains = 100; depth = 6; stacks = 0; stack_depth = 0; fanout = 0; iso = 4;
  }

(* Writes cover every write slot of the partition (2 x ifaces + impls +
   chain roots = 900), so each round writes the same set of attributes. *)
let mix =
  {
    reads = 6000; writes = 3000; selects = 900; txns = 600; txn_writes = true; expands = 0;
    rebinds = 0; creates = 0; checkpoints = 0; hot = 2048; hot_share = 0.9;
  }

(* Logged writes after the template's checkpoint, so every recovery
   replays a WAL. *)
let wal_tail = 60000

let cerr e = Rerr (Client.error_to_string e)

let exec c ~round ~op_id i op =
  let sp name f = Meter.span ~op:op_id name (fun _ -> f ()) in
  match op with
  | Read (s, a) -> (
      match sp "net.get_attr" (fun () -> Client.get_attr c (i2s s) a) with
      | Ok v -> Rval v
      | Error e -> cerr e)
  | Write (s, a) -> (
      match sp "net.set_attr" (fun () -> Client.set_attr c (i2s s) a (Value.Int (value ~round i))) with
      | Ok () -> Runit
      | Error e -> cerr e)
  | Select (cls, attr, cmp, k) -> (
      match sp "net.select" (fun () -> Client.select c ~cls ~jobs:1 ~where:(where attr cmp k) ()) with
      | Ok rows -> Rrows (Model.digest_of_rows rows, List.length rows)
      | Error e -> cerr e)
  | Txn (reads, w) ->
      Meter.span ~op:op_id "txn" (fun parent ->
          let sp name f = Meter.span ~parent ~op:op_id name (fun _ -> f ()) in
          let ( let* ) = Result.bind in
          let r =
            let* () = sp "txn.begin" (fun () -> Client.begin_txn c) in
            let vals =
              Array.map
                (fun (s, a) ->
                  match sp "txn.read" (fun () -> Client.get_attr c (i2s s) a) with
                  | Ok v -> v
                  | Error _ -> Value.Str "<error>")
                reads
            in
            let* () =
              match w with
              | None -> Ok ()
              | Some (s, a) ->
                  sp "txn.write" (fun () -> Client.set_attr c (i2s s) a (Value.Int (value ~round i)))
            in
            let* () = sp "txn.commit" (fun () -> Client.commit c) in
            Ok vals
          in
          match r with Ok vals -> Rtxn (vals, 0) | Error e -> cerr e)
  | _ -> Rerr "not a served operation"

(* ---- the server process ---- *)

type server = { pid : int; sock : string }

(* The server process alive now, killed on the way out whatever happens. *)
let live = ref None

let () =
  at_exit (fun () ->
      Option.iter
        (fun srv ->
          (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] srv.pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~server ~dir ~sock =
  if Sys.file_exists sock then Sys.remove sock;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process server
      [| server; "--socket"; sock; "--accept-domains"; "1"; "--quiet"; dir |]
      null null Unix.stderr
  in
  Unix.close null;
  let srv = { pid; sock } in
  live := Some srv;
  srv

let kill srv =
  (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] srv.pid);
  live := None

(* Connect, retrying until the server listens, and read [probe] until the
   reply is the model's value: the server is up. *)
let first_reply srv m (s, a) =
  let deadline = Meter.now_ns () + 60_000_000_000 in
  let rec go () =
    match Client.connect srv.sock with
    | Ok c -> (
        match Client.get_attr c (i2s s) a with
        | Ok v when Value.equal v (fst (Model.resolve m s a)) -> c
        | Ok v ->
            failwith
              (Printf.sprintf "the served design differs from the model: %d.%s is %s, model says %s" s a
                 (Value.to_string v) (Value.to_string (fst (Model.resolve m s a))))
        | Error e -> failwith (Client.error_to_string e))
    | Error _ ->
        if Meter.now_ns () > deadline then failwith "compo-server never answered";
        (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
        | 0, _ -> ()
        | _ -> failwith "compo-server exited");
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

(* ---- server statistics ---- *)

let stats c =
  match Client.stats c Compo_net.Protocol.Fmt_json with
  | Error e -> failwith (Client.error_to_string e)
  | Ok text -> (
      match Json.parse text with
      | Error e -> failwith e
      | Ok j ->
          let t = Hashtbl.create 64 in
          List.iter
            (fun m ->
              match Option.bind (Json.member "name" m) Json.to_string with
              | None -> ()
              | Some name ->
                  let f k = Option.value ~default:0. (Option.bind (Json.member k m) Json.to_float) in
                  (* counters and gauges carry a value; histograms a count and a sum *)
                  Hashtbl.replace t name (f "value", f "count", f "sum"))
            (Json.to_list (Option.value ~default:Json.Null (Json.member "metrics" j)));
          t)

let stat t name = Option.value ~default:(0., 0., 0.) (Hashtbl.find_opt t name)
let value_d t0 t1 name = let v1, _, _ = stat t1 name and v0, _, _ = stat t0 name in v1 -. v0

(* Mean of a histogram between two snapshots. *)
let hist_mean t0 t1 name =
  let _, c1, s1 = stat t1 name and _, c0, s0 = stat t0 name in
  if c1 -. c0 <= 0. then 0. else (s1 -. s0) /. (c1 -. c0)

(* ---- the workload ---- *)

let run ~seed ~seconds ~trace ~work ~server : Local.result =
  if not (Sys.file_exists server) then failwith ("no compo-server at " ^ server);
  (* one connection, and run.py pins the harness and the server to one
     CPU: the client waits for every reply, so it and the server's one
     accept domain take turns on that CPU *)
  let nconn = 1 in
  let sz = sizes nconn in
  let template = Filename.concat work "served-template" and dir = Filename.concat work "served" in
  let sock = Filename.concat work "s.sock" in
  let build () =
    Meter.rm_rf template;
    let j = Design.ok "open" (Journal.open_dir template) in
    let m = Model.create () in
    let d = Design.build (Journal.db j) m sz ~seed in
    Design.ok "checkpoint" (Journal.checkpoint j);
    for i = 0 to wal_tail - 1 do
      let p = d.parts_of.(i mod nconn) in
      let s = p.p_roots.(i / nconn mod Array.length p.p_roots) in
      let v = Value.Int (1 + (i mod 1000)) in
      Design.ok "logged write" (Journal.set_attr j (i2s s) "Payload" v);
      Model.set m s "Payload" v
    done;
    Journal.close j;
    (m, d)
  in
  (* set-up: build the design, start the server, wait for its first
     correct reply; five times *)
  let setups = ref [] and last = ref None in
  for _ = 1 to 5 do
    Gc.full_major ();
    let t0 = Meter.now_ns () in
    let m, d = build () in
    Meter.copy_journal template dir;
    let srv = spawn ~server ~dir ~sock in
    let c = first_reply srv m (d.parts_of.(0).p_probes.(0), "ProbeNote") in
    setups := Meter.secs (Meter.now_ns () - t0) :: !setups;
    Client.close c;
    kill srv;
    last := Some (m, d)
  done;
  let m0, d = Option.get !last in
  (* the server does not count its own replay (its registry starts after
     recovery), so the WAL it replays is measured by reopening the
     template here; a traced run also times that reopen against a reopen
     of the snapshot alone, for the replay's cost per record *)
  (* an attribute no script writes: served writes may be lost *)
  let probe_of = (d.parts_of.(0).p_probes.(0), "ProbeNote") in
  let replayed = ref 0 and reopens = ref [] and snap_reopens = ref [] in
  for _ = 1 to (if trace then 5 else 1) do
    Meter.copy_journal template dir;
    let j, t = reopen dir m0 probe_of in
    replayed := Journal.wal_records_replayed j;
    reopens := t :: !reopens;
    Journal.close j;
    if trace then snap_reopens := reopen_snapshot dir probe_of :: !snap_reopens
  done;
  let replayed = !replayed in
  let ns_per_record =
    ratio ((Meter.median_of !reopens -. Meter.median_of !snap_reopens) *. 1e9) (fi replayed)
  in
  let scripts = Array.init nconn (fun p -> generate ~seed ~part:p d mix) in
  let written = Array.map Script.written scripts in
  let acc = new_acc () in
  let st = { recoveries = []; snap_reopens = []; replayed = []; disk = 0; snapshot = 0 } in
  let rss = ref [] in
  let server_req = ref 0. and wait = ref 0. and hold = ref 0. in
  let bytes_out = ref 0. and requests = ref 0. in
  let hold_get = ref 0. and hold_sel = ref 0. in
  let lock_acq = ref 0. and traced_rounds = ref 0 and traced_txns = ref 0 in
  let extent = ref 0. and traced_rows = ref 0 in
  ignore
    (rounds ~seconds ~trace (fun ~round ~traced ->
         Meter.copy_journal template dir;
         let m = Model.copy m0 in
         let srv = spawn ~server ~dir ~sock in
         let c0 = first_reply srv m probe_of in
         let conns =
           Array.init nconn (fun i ->
               if i = 0 then c0
               else match Client.connect srv.sock with Ok c -> c | Error e -> failwith (Client.error_to_string e))
         in
         (* the probes' second session *)
         let b = match Client.connect srv.sock with Ok c -> c | Error e -> failwith (Client.error_to_string e) in
         Gc.full_major ();
         let s0 = if traced then Some (stats c0) else None in
         let results = Array.map (fun s -> Array.make (Array.length s) Runit) scripts in
         let lats = Array.init nconn (fun _ -> Hashtbl.create 8) in
         Meter.tracer.on <- traced;
         let g0 = Gc.quick_stat () in
         let t0 = Meter.now_ns () in
         let worker p =
           let script = scripts.(p) and res = results.(p) and c = conns.(p) in
           Array.iteri
             (fun i op ->
               let a = Meter.now_ns () in
               let r = exec c ~round ~op_id:((round * 1_000_000) + (p * 100_000) + i) i op in
               let b = Meter.now_ns () in
               res.(i) <- r;
               if not traced then begin
                 let kd = kind op in
                 let v =
                   match Hashtbl.find_opt lats.(p) kd with
                   | Some v -> v
                   | None ->
                       let v = Meter.samples () in
                       Hashtbl.replace lats.(p) kd v;
                       v
                 in
                 Meter.push v (float_of_int (b - a))
               end)
             script
         in
         let threads = Array.init nconn (fun p -> Thread.create worker p) in
         Array.iter Thread.join threads;
         let t1 = Meter.now_ns () in
         let g1 = Gc.quick_stat () in
         Meter.tracer.on <- false;
         let n = Array.fold_left (fun a s -> a + Array.length s) 0 scripts in
         if traced then begin
           incr traced_rounds;
           acc.traced_ops <- acc.traced_ops + n;
           acc.traced_ns <- acc.traced_ns + (t1 - t0);
           let s0 = Option.get s0 and s1 = stats c0 in
           let d0 = value_d s0 s1 in
           server_req := !server_req +. hist_mean s0 s1 "net.request.seconds";
           wait := !wait +. hist_mean s0 s1 "server.gate.wait_seconds";
           hold := !hold +. hist_mean s0 s1 "server.gate.hold_seconds";
           hold_get := !hold_get +. hist_mean s0 s1 "server.gate.hold_seconds.get_attr";
           hold_sel := !hold_sel +. hist_mean s0 s1 "server.gate.hold_seconds.select";
           bytes_out := !bytes_out +. d0 "net.bytes.out";
           requests := !requests +. d0 "net.requests";
           lock_acq := !lock_acq +. d0 "lock.acquire";
           let _, _, e1 = stat s1 "query.select.extent" and _, _, e0 = stat s0 "query.select.extent" in
           extent := !extent +. (e1 -. e0);
           List.iter
             (fun (name, c) -> Hashtbl.replace acc.deltas c ((try Hashtbl.find acc.deltas c with Not_found -> 0) + int_of_float (d0 name)))
             [
               ("inheritance.cache.hit", "inheritance.cache.hit");
               ("inheritance.cache.miss", "inheritance.cache.miss");
               ("inheritance.cache.invalidate.scoped", "inheritance.cache.invalidate.scoped");
               ("inheritance.cache.invalidate.global", "inheritance.cache.invalidate.global");
               ("plan.scan.compiled", "plan.scan.compiled");
               ("plan.scan.fallback", "plan.scan.fallback");
               ("plan.delta.rebuild", "plan.delta.rebuild");
               ("par.chunks.stolen", "par.chunks.stolen");
             ]
         end
         else begin
           acc.ops <- acc.ops + n;
           acc.wall_ns <- acc.wall_ns + (t1 - t0);
           acc.untraced_rounds <- acc.untraced_rounds + 1;
           acc.minor_words <- acc.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
           acc.majors <- acc.majors + (g1.Gc.major_collections - g0.Gc.major_collections);
           acc.rates <- (fi n /. Meter.secs (t1 - t0)) :: acc.rates;
           Array.iter
             (fun t -> Hashtbl.iter (fun kd v -> Meter.append (lat acc kd) v) t)
             lats
         end;
         Array.iteri (fun p script -> check acc d m ~round script results.(p)) scripts;
         if traced then
           Array.iter
             (fun r ->
               traced_rows := !traced_rows + rows_of r;
               traced_txns := !traced_txns + fst (txns_of r))
             results;
         (* isolation probes: A writes in a transaction, B reads and writes
            the same attribute in autocommit, A aborts *)
         let a = c0 in
         Array.iter
           (fun o ->
             let v0 = fst (Model.resolve m o "TimeBehavior") in
             acc.attempted <- acc.attempted + 2;
             (match Client.begin_txn a with
             | Ok () -> (
                 match Client.set_attr a (i2s o) "TimeBehavior" (Value.Int 4242) with
                 | Ok () -> ()
                 | Error _ -> problem acc "isolation probe: session A could not write")
             | Error _ -> problem acc "isolation probe: session A could not begin");
             let read_refused = Result.is_error (Client.get_attr b (i2s o) "TimeBehavior") in
             let write_refused =
               Result.is_error (Client.set_attr b (i2s o) "TimeBehavior" (Value.Int 4343))
             in
             (match Client.abort a with Ok () -> () | Error _ -> problem acc "isolation probe: abort failed");
             let after = Client.get_attr a (i2s o) "TimeBehavior" in
             if not read_refused then acc.failed <- acc.failed + 1;
             if not (write_refused && after = Ok v0) then acc.failed <- acc.failed + 1)
           d.iso_objs;
         rss := Meter.peak_rss_mb srv.pid :: !rss;
         st.disk <- Meter.disk_bytes dir;
         st.snapshot <- Meter.file_size (Filename.concat dir "snapshot.bin");
         Array.iter Client.close conns;
         Client.close b;
         (* crash: the server dies at once; recovery is the respawn until
            its first correct reply *)
         kill srv;
         let r0 = Meter.now_ns () in
         let srv = spawn ~server ~dir ~sock in
         let c = first_reply srv m probe_of in
         st.recoveries <- Meter.secs (Meter.now_ns () - r0) :: st.recoveries;
         st.replayed <- replayed :: st.replayed;
         (* durability: the last acknowledged value of every written
            attribute must have survived *)
         Array.iter
           (List.iter (fun (s, a) ->
                acc.attempted <- acc.attempted + 1;
                match Client.get_attr c (i2s s) a with
                | Ok v when Value.equal v (fst (Model.resolve m s a)) -> ()
                | _ -> acc.failed <- acc.failed + 1))
           written;
         Client.close c;
         kill srv));
  let rss = Meter.median_of !rss in
  let tr = fi (max 1 !traced_rounds) in
  let us_of s = s /. tr *. 1e6 and ns_of s = s /. tr *. 1e9 in
  let client_mean =
    List.fold_left
      (fun (n, t) name ->
        let k, mean = Meter.span_stats name in
        (n + k, t +. (mean *. fi k)))
      (0, 0.)
      [ "net.get_attr"; "net.set_attr"; "net.select"; "txn.begin"; "txn.read"; "txn.write"; "txn.commit" ]
  in
  acc.extent_rows <- !extent;
  let base = finish acc st ~rss ~setups:!setups ~trace ~traced_rounds:(max 1 !traced_rounds) ~verify_problems:[] in
  let override =
    [
      ("inheritance.read_ns", ns_of !hold_get);
      ("query.select_ns", ns_of !hold_sel);
      ("query.rows_examined_per_row", ratio !extent (fi !traced_rows));
      ("txn.locks_per_txn", ratio !lock_acq (fi !traced_txns));
      ("recovery.ns_per_record", ns_per_record);
      ("net.server_request_us", us_of !server_req);
      ( "net.outside_server_us",
        (ratio (snd client_mean) (fi (fst client_mean)) /. 1000.) -. us_of !server_req );
      ("net.gate_wait_us", us_of !wait);
      ("net.gate_hold_us", us_of !hold);
      ("net.bytes_out_per_request", ratio !bytes_out !requests);
    ]
  in
  {
    base with
    layer =
      (if trace then
         List.map
           (fun (name, v, unit) ->
             match List.assoc_opt name override with Some v' -> (name, v', unit) | None -> (name, v, unit))
           base.layer
       else []);
  }
