(* The in-process workloads: design_session (the kernel alone, in memory)
   and durable_churn (the kernel behind the journal). *)

open Compo_core
module Journal = Compo_storage.Journal
module Txn = Compo_txn.Transaction
module Metrics = Compo_obs.Metrics
open Script

type res =
  | Rval of Value.t
  | Rrows of Model.digest * int
  | Rexp of Composite.node * (Surrogate.t * int) list
  | Rtxn of Value.t array * int  (** values read, locks held before commit *)
  | Rmade of int  (** the entity made or re-bound *)
  | Runit
  | Rerr of string

let s2i = Surrogate.to_int
let i2s = Surrogate.of_int

type kernel = {
  db : Database.t;
  j : Journal.t option;  (** writes are logged when present *)
  mgr : Txn.manager;
  jobs : int;  (** of the parallel selects; the others run at 1 *)
}

let kernel ?j db jobs = { db; j; mgr = Txn.create_manager (Database.store db); jobs }

let where attr cmp k =
  Expr.Binop
    ((match cmp with Model.Gt -> Expr.Gt | Model.Lt -> Expr.Lt), Expr.Path [ attr ], Expr.Const (Value.Int k))

let err e = Rerr (Errors.to_string e)
let of_unit = function Ok () -> Runit | Error e -> err e

(* Layer counters the traced rounds read from the program. *)
let counters =
  [
    "inheritance.cache.hit"; "inheritance.cache.miss"; "inheritance.cache.invalidate.scoped";
    "inheritance.cache.invalidate.global"; "plan.scan.compiled"; "plan.scan.fallback";
    "plan.delta.rebuild"; "par.chunks.stolen"; "wal.append"; "wal.append.bytes";
  ]

type acc = {
  lat : (string, Meter.samples) Hashtbl.t;  (** untraced per-kind latencies, ns *)
  mutable ops : int;
  mutable wall_ns : int;  (** untraced timed phases *)
  mutable traced_ops : int;
  mutable traced_ns : int;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable hops : int;
  mutable reads_checked : int;
  mutable nodes : int;
  mutable expands : int;
  mutable rows : int;
  mutable extent_rows : float;
  mutable locks : int;
  mutable txns : int;
  mutable busy : float;
  mutable busy_n : int;
  mutable user_bytes : int;
  mutable minor_words : float;
  mutable majors : int;
  mutable untraced_rounds : int;
  mutable rates : float list;  (** ops/s of each untraced round *)
  deltas : (string, int) Hashtbl.t;
}

let new_acc () =
  {
    lat = Hashtbl.create 8; ops = 0; wall_ns = 0; traced_ops = 0; traced_ns = 0; attempted = 0;
    failed = 0; problems = []; hops = 0; reads_checked = 0; nodes = 0; expands = 0; rows = 0;
    extent_rows = 0.; locks = 0; txns = 0; busy = 0.; busy_n = 0; user_bytes = 0;
    minor_words = 0.; majors = 0; untraced_rounds = 0; rates = []; deltas = Hashtbl.create 16;
  }

let lat acc kind =
  match Hashtbl.find_opt acc.lat kind with
  | Some v -> v
  | None ->
      let v = Meter.samples () in
      Hashtbl.replace acc.lat kind v;
      v

let problem acc msg = if List.length acc.problems < 20 then acc.problems <- msg :: acc.problems

let extent_sum () =
  match Metrics.find "query.select.extent" with Some (Metrics.Histogram h) -> h.h_sum | _ -> 0.

(* One script operation against the kernel.  [op_id] names it in spans. *)
let exec k ~round ~op_id results i op =
  let sp name f = Meter.span ~op:op_id name (fun _ -> f ()) in
  match op with
  | Read (s, a) ->
      Meter.span ~op:op_id "inheritance.get_attr" (fun _ ->
          match Database.get_attr k.db (i2s s) a with Ok v -> Rval v | Error e -> err e)
  | Write (s, a) ->
      let v = Value.Int (value ~round i) in
      of_unit
        (match k.j with
        | Some j -> sp "journal.set_attr" (fun () -> Journal.set_attr j (i2s s) a v)
        | None -> sp "store.set_attr" (fun () -> Database.set_attr k.db (i2s s) a v))
  | Select (cls, attr, cmp, kk) -> (
      match
        sp "query.select" (fun () -> Database.select k.db ~cls ~jobs:1 ~where:(where attr cmp kk) ())
      with
      | Ok rows -> Rrows (Model.digest_of_rows rows, List.length rows)
      | Error e -> err e)
  | Par_select (cls, attr, cmp, kk) -> (
      match
        sp "par.select" (fun () ->
            Database.select k.db ~cls ~jobs:k.jobs ~where:(where attr cmp kk) ())
      with
      | Ok rows -> Rrows (Model.digest_of_rows rows, List.length rows)
      | Error e -> err e)
  | Txn (reads, w) ->
      Meter.span ~op:op_id "txn" (fun parent ->
          let sp name f = Meter.span ~parent ~op:op_id name (fun _ -> f ()) in
          let t = sp "txn.begin" (fun () -> Txn.begin_txn k.mgr ~user:"designer") in
          let vals =
            Array.map
              (fun (s, a) ->
                match sp "txn.read" (fun () -> Txn.get_attr k.mgr t (i2s s) a) with
                | Ok v -> v
                | Error _ -> Value.Str "<error>")
              reads
          in
          let wr =
            match w with
            | None -> Ok ()
            | Some (s, a) ->
                sp "txn.write" (fun () ->
                    Txn.set_attr k.mgr t (i2s s) a (Value.Int (value ~round i)))
          in
          let locks =
            if Meter.tracer.on then
              List.length (Compo_txn.Lock_manager.locks_of (Txn.lock_manager k.mgr) ~txn:(Txn.id t))
            else 0
          in
          match (wr, sp "txn.commit" (fun () -> Txn.commit k.mgr t)) with
          | Ok (), Ok () -> Rtxn (vals, locks)
          | Error e, _ | _, Error e -> err e)
  | Expand top -> (
      match
        Meter.span ~op:op_id "composite" (fun parent ->
            let sp name f = Meter.span ~parent ~op:op_id name (fun _ -> f ()) in
            match sp "composite.expand" (fun () -> Database.expand k.db (i2s top)) with
            | Error e -> Error e
            | Ok node -> (
                match sp "composite.bom" (fun () -> Database.bill_of_materials k.db (i2s top)) with
                | Ok bom -> Ok (node, bom)
                | Error e -> Error e))
      with
      | Ok (node, bom) -> Rexp (node, bom)
      | Error e -> err e)
  | Rebind (impl, iface) -> (
      let j = Option.get k.j in
      match sp "journal.unbind" (fun () -> Journal.unbind j (i2s impl)) with
      | Error e -> err e
      | Ok () -> (
          match
            sp "journal.bind" (fun () ->
                Journal.bind j ~via:"AllOf_GateInterface" ~transmitter:(i2s iface)
                  ~inheritor:(i2s impl) ())
          with
          | Ok _ -> Rmade impl
          | Error e -> err e))
  | Create impl -> (
      let j = Option.get k.j in
      match
        sp "journal.new_object" (fun () ->
            Journal.new_object j ~cls:(Design.probe_cls 0) ~ty:"TimingProbe"
              ~attrs:[ ("ProbeNote", Value.Str "t") ] ())
      with
      | Error e -> err e
      | Ok p -> (
          match
            sp "journal.bind" (fun () ->
                Journal.bind j ~via:"SomeOf_Gate" ~transmitter:(i2s impl) ~inheritor:p ())
          with
          | Ok _ -> Rmade (s2i p)
          | Error e -> err e))
  | Delete idx -> (
      match results.(idx) with
      | Rmade p ->
          of_unit (sp "journal.delete" (fun () -> Journal.delete (Option.get k.j) ~force:true (i2s p)))
      | _ -> Rerr "delete of a probe that was never made")
  | Checkpoint -> of_unit (sp "journal.checkpoint" (fun () -> Journal.checkpoint (Option.get k.j)))

(* Replay one round's script on the model, checking every recorded answer
   against the model's prediction and applying the writes that succeeded. *)
let check acc (d : Design.t) m ~round script results =
  let fanout = d.sizes.fanout in
  let where i = Printf.sprintf "round %d op %d (%s)" round i (kind script.(i)) in
  (* a wrong answer makes the run incorrect; an operation the program
     refused is counted as failed *)
  let fail i what = problem acc (where i ^ ": " ^ what) in
  let expect_read i s a got =
    let want, hops = Model.resolve m s a in
    acc.hops <- acc.hops + hops;
    acc.reads_checked <- acc.reads_checked + 1;
    if not (Value.equal want got) then
      fail i (Printf.sprintf "%d.%s read %s, model says %s" s a (Value.to_string got) (Value.to_string want))
  in
  Array.iteri
    (fun i op ->
      acc.attempted <- acc.attempted + 1;
      match (op, results.(i)) with
      | _, Rerr e ->
          acc.failed <- acc.failed + 1;
          if acc.failed <= 5 then prerr_endline ("failed: " ^ where i ^ ": " ^ e)
      | Read (s, a), Rval v -> expect_read i s a v
      | Write (s, a), Runit -> Model.set m s a (Value.Int (value ~round i))
      | (Select (cls, attr, cmp, k) | Par_select (cls, attr, cmp, k)), Rrows (dg, _) ->
          if dg <> Model.filter m ~cls ~attr ~cmp ~k then
            fail i (Printf.sprintf "select %s where %s: rows differ from the model's filter" cls attr)
      | Txn (reads, w), Rtxn (vals, _) ->
          Array.iteri (fun r (s, a) -> expect_read i s a vals.(r)) reads;
          Option.iter (fun (s, a) -> Model.set m s a (Value.Int (value ~round i))) w
      | Expand top, Rexp (node, bom) ->
          let l = Hashtbl.find d.levels top in
          let n = Composite.node_count node in
          acc.nodes <- acc.nodes + n;
          acc.expands <- acc.expands + 1;
          if n <> Design.expand_nodes ~fanout l then fail i (Printf.sprintf "expansion has %d nodes" n)
          else if List.length bom <> fanout * l then fail i "bill of materials has the wrong length"
          else
            List.iter
              (fun (c, k) ->
                match Hashtbl.find_opt d.levels (s2i c) with
                | Some lc when k = Design.bom_multiplicity ~fanout ~top:l ~level:lc -> ()
                | _ -> fail i (Printf.sprintf "bill of materials counts %s %d times" (Surrogate.to_string c) k))
              bom
      | Rebind (impl, iface), Rmade _ ->
          Model.unbind m impl;
          Model.bind m ~inheritor:impl ~transmitter:iface ~via:"AllOf_GateInterface"
      | Create impl, Rmade p ->
          Model.add m p ~cls:(Design.probe_cls 0) [ ("ProbeNote", Value.Str "t") ];
          Model.bind m ~inheritor:p ~transmitter:impl ~via:"SomeOf_Gate"
      | Delete idx, Runit -> (
          match results.(idx) with Rmade p -> Model.delete m p | _ -> fail i "nothing to delete")
      | Checkpoint, Runit -> ()
      | _ -> fail i "unexpected answer")
    script

(* The whole state of [db] against the model: entity count, every local
   value, every binding, every class extent and every inherited read
   target; then the program's own consistency checks. *)
let verify_state (d : Design.t) m db =
  let store = Database.store db in
  let problems = ref [] in
  let add p = if List.length !problems < 20 then problems := p :: !problems in
  if Store.entity_count store <> Model.entity_count m then
    add (Printf.sprintf "%d entities, model has %d" (Store.entity_count store) (Model.entity_count m));
  Hashtbl.iter
    (fun s (e : Model.ent) ->
      List.iter
        (fun (a, v) ->
          match Store.local_attr store (i2s s) a with
          | Ok v' when Value.equal v v' -> ()
          | _ -> add (Printf.sprintf "%d.%s differs from the model" s a))
        e.local;
      match Database.transmitter_of db (i2s s) with
      | Ok (Some t) when s2i t = e.tx -> ()
      | Ok None when e.tx < 0 -> ()
      | _ -> add (Printf.sprintf "%d is bound differently than in the model" s))
    m.Model.ents;
  Hashtbl.iter
    (fun cls members ->
      match Store.class_members store cls with
      | Ok l ->
          let dg = Model.digest_of_rows l in
          let want = Hashtbl.fold (fun s _ d -> Model.digest_add d s) members Model.empty_digest in
          if dg <> want then add ("class " ^ cls ^ " differs from the model")
      | Error e -> add (Errors.to_string e))
    m.Model.extents;
  Array.iter
    (fun (p : Design.part) ->
      Array.iter
        (fun (s, a) ->
          if Hashtbl.mem m.Model.ents s then
            match Database.get_attr db (i2s s) a with
            | Ok v when Value.equal v (fst (Model.resolve m s a)) -> ()
            | _ -> add (Printf.sprintf "inherited %d.%s differs from the model" s a))
        p.p_reads)
    d.parts_of;
  List.iter add (Compo_storage.Fsck.check_db db);
  List.iter add (Database.verify_indexes db);
  List.rev !problems

let latency_kinds = [ "read"; "write"; "select"; "txn"; "expand" ]

(* What the user handed a logged operation: names and 8-byte values. *)
let user_bytes = function
  | Write (_, a) -> String.length a + 8
  | Create _ -> String.length "TimingProbe" + String.length "ProbeNote" + 1 + String.length "SomeOf_Gate" + 16
  | Rebind _ -> 8 + String.length "AllOf_GateInterface" + 16
  | Delete _ -> 8
  | _ -> 0

let counter_values () = List.map (fun c -> (c, Metrics.counter_value c)) counters

(* Rows returned by a round's selects; transactions and the locks they
   held (counted in traced rounds only). *)
let rows_of results = Array.fold_left (fun n r -> match r with Rrows (_, k) -> n + k | _ -> n) 0 results

let txns_of results =
  Array.fold_left (fun (n, l) r -> match r with Rtxn (_, k) -> (n + 1, l + k) | _ -> (n, l)) (0, 0) results

(* One round: the whole script, timed per operation (untraced) or under
   spans and live program counters (traced). *)
let run_round acc k script ~round ~traced =
  let results = Array.make (Array.length script) Runit in
  Meter.tracer.on <- traced;
  if traced then Metrics.enable ();
  let c0 = counter_values () and e0 = extent_sum () in
  let g0 = Gc.quick_stat () in
  let t0 = Meter.now_ns () in
  Array.iteri
    (fun i op ->
      let a = Meter.now_ns () in
      let r = exec k ~round ~op_id:((round * 1_000_000) + i) results i op in
      let b = Meter.now_ns () in
      results.(i) <- r;
      if traced && k.j <> None then acc.user_bytes <- acc.user_bytes + user_bytes op
      else
        let kd = kind op in
        if List.mem kd latency_kinds then Meter.push (lat acc kd) (float_of_int (b - a)))
    script;
  let t1 = Meter.now_ns () in
  let g1 = Gc.quick_stat () in
  Meter.tracer.on <- false;
  Metrics.disable ();
  let n = Array.length script in
  if traced then begin
    acc.traced_ops <- acc.traced_ops + n;
    acc.traced_ns <- acc.traced_ns + (t1 - t0);
    acc.extent_rows <- acc.extent_rows +. (extent_sum () -. e0);
    acc.rows <- acc.rows + rows_of results;
    let t, l = txns_of results in
    acc.txns <- acc.txns + t;
    acc.locks <- acc.locks + l;
    List.iter2
      (fun (c, v0) (_, v1) ->
        Hashtbl.replace acc.deltas c ((try Hashtbl.find acc.deltas c with Not_found -> 0) + v1 - v0))
      c0 (counter_values ())
  end
  else begin
    acc.ops <- acc.ops + n;
    acc.wall_ns <- acc.wall_ns + (t1 - t0);
    acc.rates <- (float_of_int n /. Meter.secs (t1 - t0)) :: acc.rates;
    acc.untraced_rounds <- acc.untraced_rounds + 1;
    acc.minor_words <- acc.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    acc.majors <- acc.majors + (g1.Gc.major_collections - g0.Gc.major_collections)
  end;
  results

(* design_session's parallel phase, in traced runs only: the script's
   selects again, [par_passes] times, at jobs = available cores, after
   every end-to-end measurement.  The pool's domains start here: with
   one idle pool domain alive through the rounds, the single-threaded
   rounds ran a third slower and their spreads between runs reached
   0.24-0.36. *)
let par_passes = 3

let par_phase acc (d : Design.t) m k script =
  let ps =
    Array.of_list
      (List.filter_map
         (function Select (c, a, cmp, kk) -> Some (Par_select (c, a, cmp, kk)) | _ -> None)
         (Array.to_list script))
  in
  (* start the pool's domains outside the spans *)
  ignore (exec k ~round:0 ~op_id:(-2) [||] 0 ps.(0));
  Meter.tracer.on <- true;
  Metrics.enable ();
  let stolen0 = Metrics.counter_value "par.chunks.stolen" in
  for pass = 1 to par_passes do
    let results =
      Array.mapi
        (fun i op ->
          let r = exec k ~round:pass ~op_id:(-((pass * 1_000_000) + i)) [||] i op in
          (match Metrics.find "par.busy.ratio" with
          | Some (Metrics.Gauge g) ->
              acc.busy <- acc.busy +. g;
              acc.busy_n <- acc.busy_n + 1
          | _ -> ());
          r)
        ps
    in
    check acc d m ~round:pass ps results
  done;
  Hashtbl.replace acc.deltas "par.chunks.stolen" (Metrics.counter_value "par.chunks.stolen" - stolen0);
  Meter.tracer.on <- false;
  Metrics.disable ()

(* Rounds until [seconds] have passed (at least two, so a traced run has
   an untraced round to compare with).  With [trace], odd rounds are
   traced. *)
let rounds ~seconds ~trace f =
  let start = Meter.now_ns () in
  let r = ref 0 in
  while !r < 2 || Meter.secs (Meter.now_ns () - start) < seconds do
    f ~round:!r ~traced:(trace && !r mod 2 = 1);
    incr r
  done;
  !r

type result = {
  e2e : (string * float * string) list;
  layer : (string * float * string) list;
  attempted : int;
  failed : int;
  problems : string list;
}

let q v p = Meter.quantile_sorted (Meter.sorted v) p
let us ns = ns /. 1000.
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Expansion has no wire operation, so its timings are per-layer only. *)
let e2e_kinds = [ "read"; "write"; "select"; "txn" ]

(* End to end: the median of each kind.  Tails (p90, p99) are per-layer
   figures: on a small shared machine they did not repeat between runs
   within any usable bound.  A full-length run takes more than 1000
   samples of each kind, so ten lie beyond each p99; the counts go to
   standard error. *)
let latency_metrics acc =
  List.map
    (fun kd ->
      let v = lat acc kd in
      if v.Meter.n < 100 then failwith (Printf.sprintf "only %d %s samples" v.Meter.n kd);
      (kd ^ "_p50_us", us (Meter.quantile_sorted (Meter.sorted v) 0.5), "us"))
    e2e_kinds

(* The tails, from the untraced rounds of a traced run. *)
let tail_metrics acc =
  List.concat_map
    (fun kd ->
      let s = Meter.sorted (lat acc kd) in
      [
        ("tail." ^ kd ^ "_p90_us", us (Meter.quantile_sorted s 0.9), "us");
        ("tail." ^ kd ^ "_p99_us", us (Meter.quantile_sorted s 0.99), "us");
      ])
    e2e_kinds

let sample_counts acc =
  List.filter_map
    (fun kd ->
      let v = lat acc kd in
      let s = Meter.sorted v in
      if v.Meter.n = 0 then None else Some (
      Printf.sprintf "%s: n=%d p50=%.2fus p90=%.2fus p99=%.2fus" kd v.Meter.n
        (us (Meter.quantile_sorted s 0.5)) (us (Meter.quantile_sorted s 0.9))
        (us (Meter.quantile_sorted s 0.99))))
    latency_kinds

let delta acc c = fi (try Hashtbl.find acc.deltas c with Not_found -> 0)

(* Per-layer metrics of the kernel, from the traced rounds. *)
let kernel_layers acc =
  let mean name = snd (Meter.span_stats name) in
  let hits = delta acc "inheritance.cache.hit" and misses = delta acc "inheritance.cache.miss" in
  let compiled = delta acc "plan.scan.compiled" in
  let expand_ns = mean "composite.expand" +. mean "composite.bom" in
  let nodes = ratio (fi acc.nodes) (fi acc.expands) in
  [
    ("inheritance.read_ns", mean "inheritance.get_attr", "ns");
    ("resolve_cache.hit_ratio", ratio hits (hits +. misses), "ratio");
    ("inheritance.hops_per_read", ratio (fi acc.hops) (fi acc.reads_checked), "count");
    ("resolve_cache.invalidations_scoped", delta acc "inheritance.cache.invalidate.scoped", "count");
    ("resolve_cache.invalidations_global", delta acc "inheritance.cache.invalidate.global", "count");
    ("query.select_ns", mean "query.select", "ns");
    ("query.rows_examined_per_row", ratio acc.extent_rows (fi acc.rows), "ratio");
    ("plan.compiled_share", ratio compiled (compiled +. delta acc "plan.scan.fallback"), "ratio");
    ("plan.delta.rebuilds", delta acc "plan.delta.rebuild", "count");
    ("par.select_ns", mean "par.select", "ns");
    ("par.chunks_stolen", delta acc "par.chunks.stolen", "count");
    ("par.busy_ratio", ratio acc.busy (fi acc.busy_n), "ratio");
    ("composite.expand_ns", expand_ns, "ns");
    ("composite.nodes_per_expand", nodes, "count");
    ("composite.ns_per_node", ratio expand_ns nodes, "ns");
    ("txn.read_ns", mean "txn.read", "ns");
    ("txn.locks_per_txn", ratio (fi acc.locks) (fi acc.txns), "count");
    ("txn.commit_ns", mean "txn.commit", "ns");
    ("gc.minor_words_per_op", ratio acc.minor_words (fi acc.ops), "words");
    ("gc.major_collections", ratio (fi acc.majors) (fi acc.untraced_rounds), "count");
    ( "trace.overhead_ratio",
      ratio (ratio (fi acc.ops) (Meter.secs acc.wall_ns)) (ratio (fi acc.traced_ops) (Meter.secs acc.traced_ns)),
      "ratio" );
  ]

type storage = {
  mutable recoveries : float list;  (** seconds *)
  mutable snap_reopens : float list;
      (** seconds to reopen a copy holding only the snapshot (traced runs) *)
  mutable replayed : int list;
  mutable disk : int;
  mutable snapshot : int;
}

let storage_layers acc (st : storage) ~traced_rounds =
  let n_ckpt, ckpt_ns = Meter.span_stats "journal.checkpoint" in
  let bytes = delta acc "wal.append.bytes" and records = delta acc "wal.append" in
  let replayed = Meter.median_of (List.map fi st.replayed) in
  (* replay alone: the reopen minus a reopen of the snapshot alone *)
  let replay_s = Meter.median_of st.recoveries -. Meter.median_of st.snap_reopens in
  [
    ("journal.write_ns", snd (Meter.span_stats "journal.set_attr"), "ns");
    ("checkpoint.count", ratio (fi n_ckpt) (fi traced_rounds), "count");
    ("checkpoint.s", ckpt_ns /. 1e9, "s");
    ("wal.bytes_per_record", ratio bytes records, "bytes");
    ("wal.bytes_per_user_byte", ratio bytes (fi acc.user_bytes), "ratio");
    ("recovery.records_replayed", replayed, "count");
    ("recovery.ns_per_record", ratio (replay_s *. 1e9) replayed, "ns");
    ("snapshot.bytes", fi st.snapshot, "bytes");
  ]

(* The net layer's metrics: 0 in process, measured by served_mix. *)
let net_layers =
  List.map
    (fun (name, unit) -> (name, 0., unit))
    [
      ("net.server_request_us", "us"); ("net.outside_server_us", "us"); ("net.gate_wait_us", "us");
      ("net.gate_hold_us", "us"); ("net.bytes_out_per_request", "bytes");
    ]

(* Reopen a journal directory after a crash, until the first correct
   read of [probe]: the recovery interval. *)
let reopen dir m (s, a) =
  Gc.full_major ();
  let t0 = Meter.now_ns () in
  let j = Design.ok "reopen" (Journal.open_dir dir) in
  (match Database.get_attr (Journal.db j) (i2s s) a with
  | Ok v when Value.equal v (fst (Model.resolve m s a)) -> ()
  | _ -> failwith "first read after recovery is wrong");
  (j, Meter.secs (Meter.now_ns () - t0))

(* The same reopen of a copy of [dir] that holds only its snapshot: the
   part of the recovery interval that is not WAL replay.  The first read
   is not checked, since the copy lacks the WAL's writes. *)
let reopen_snapshot dir (s, a) =
  let copy = dir ^ ".snap" in
  Meter.copy_journal ~wal:false dir copy;
  Gc.full_major ();
  let t0 = Meter.now_ns () in
  let j = Design.ok "reopen" (Journal.open_dir copy) in
  ignore (Database.get_attr (Journal.db j) (i2s s) a);
  let t = Meter.secs (Meter.now_ns () - t0) in
  Journal.close j;
  Meter.rm_rf copy;
  t

let finish acc (st : storage) ~rss ~setups ~trace ~traced_rounds ~verify_problems =
  let e2e =
    if trace then []
    else
      [ ("setup_s", Meter.median_of setups, "s");
        (* the median round, so one disturbed round does not move it *)
        ("ops_per_s", Meter.median_of acc.rates, "1/s") ]
      @ latency_metrics acc
      @ [
          ("recovery_s", Meter.median_of st.recoveries, "s");
          ("disk_bytes", fi st.disk, "bytes");
          ("peak_rss_mb", rss, "MiB");
        ]
  in
  let layer =
    if trace then
      kernel_layers acc @ storage_layers acc st ~traced_rounds @ tail_metrics acc @ net_layers
    else []
  in
  List.iter prerr_endline (sample_counts acc);
  {
    e2e;
    layer;
    attempted = acc.attempted;
    failed = acc.failed;
    problems = List.rev acc.problems @ verify_problems;
  }

let design_session_sizes =
  {
    Design.parts = 1; pin_ifaces = 64; ifaces = 800; impls = 4000; subgates = 1; probes = 26000;
    chains = 800; depth = 6; stacks = 8; stack_depth = 4; fanout = 4; iso = 0;
  }

let design_session_mix =
  {
    reads = 20000; writes = 500; selects = 150; txns = 200; txn_writes = true; expands = 100;
    rebinds = 0; creates = 0; checkpoints = 0; hot = 16384; hot_share = 0.9;
  }

(* Logged edits after the session's closing checkpoint. *)
let save_tail = 5000

let design_session ~seed ~seconds ~trace ~work =
  (* the rounds' selects run at jobs = 1; jobs is the parallel phase's *)
  let jobs = Compo_par.Pool.available_cores () in
  let sz = design_session_sizes and mx = design_session_mix in
  let dir = Filename.concat work "design" in
  (* set up five times; the last design is the one the rounds use *)
  let setup () =
    Meter.rm_rf dir;
    let t0 = Meter.now_ns () in
    let j = Design.ok "open" (Journal.open_dir dir) in
    let db = Journal.db j and m = Model.create () in
    let d = Design.build db m sz ~seed in
    let script = generate ~seed ~part:0 d mx in
    let k = kernel db jobs in
    let p = d.parts_of.(0) in
    for i = 0 to mx.hot - 1 do
      let s, a = p.p_reads.(i) in
      ignore (Database.get_attr db (i2s s) a)
    done;
    Array.iteri (fun i op -> match op with Select _ -> ignore (exec k ~round:0 ~op_id:0 [||] i op) | _ -> ()) script;
    (Meter.secs (Meter.now_ns () - t0), (j, m, d, script, k))
  in
  let setups = ref [] and last = ref None in
  for _ = 1 to 5 do
    Option.iter (fun (j, _, _, _, _) -> Journal.close j) !last;
    last := None;
    Gc.full_major ();
    let t, st = setup () in
    setups := t :: !setups;
    last := Some st
  done;
  let j, m, d, script, k = Option.get !last in
  last := None;
  (* garbage from set-up is collected before the timed phase *)
  Gc.compact ();
  let acc = new_acc () in
  ignore
    (rounds ~seconds ~trace (fun ~round ~traced ->
         Gc.full_major ();
         let results = run_round acc k script ~round ~traced in
         check acc d m ~round script results));
  (* save the session: a checkpoint, then a tail of logged edits to the
     chain roots that every reopen replays; then crash and reopen five
     times *)
  let st = { recoveries = []; snap_reopens = []; replayed = []; disk = 0; snapshot = 0 } in
  Meter.tracer.on <- trace;
  if trace then Metrics.enable ();
  let c0 = counter_values () in
  ignore (Meter.span ~op:(-1) "journal.checkpoint" (fun _ -> Design.ok "save" (Journal.checkpoint j)));
  let roots = d.parts_of.(0).p_roots in
  for i = 0 to save_tail - 1 do
    let s = roots.(i mod Array.length roots) and v = Value.Int (1 + (i mod 1000)) in
    Meter.span ~op:(-1) "journal.set_attr" (fun _ ->
        Design.ok "logged write" (Journal.set_attr j (i2s s) "Payload" v));
    Model.set m s "Payload" v;
    if trace then acc.user_bytes <- acc.user_bytes + user_bytes (Write (s, "Payload"))
  done;
  List.iter2
    (fun (c, v0) (_, v1) ->
      if String.starts_with ~prefix:"wal." c then
        Hashtbl.replace acc.deltas c ((try Hashtbl.find acc.deltas c with Not_found -> 0) + v1 - v0))
    c0 (counter_values ());
  Meter.tracer.on <- false;
  Metrics.disable ();
  st.disk <- Meter.disk_bytes dir;
  st.snapshot <- Meter.file_size (Filename.concat dir "snapshot.bin");
  Journal.crash j;
  ignore k;
  Gc.compact ();
  let probe = d.parts_of.(0).p_reads.(0) in
  let verify = ref [] and last = ref None in
  for i = 1 to 5 do
    let j', t = reopen dir m probe in
    st.recoveries <- t :: st.recoveries;
    st.replayed <- Journal.wal_records_replayed j' :: st.replayed;
    if i = 5 then verify := verify_state d m (Journal.db j');
    if i = 5 && trace then last := Some j' else Journal.close j';
    if trace then st.snap_reopens <- reopen_snapshot dir probe :: st.snap_reopens
  done;
  let rss = Meter.peak_rss_mb 0 in
  (* the recovered design, which equals the model, serves the parallel
     phase *)
  Option.iter
    (fun j' ->
      par_phase acc d m (kernel (Journal.db j') jobs) script;
      Journal.close j')
    !last;
  (* the one checkpoint is the save *)
  finish acc st ~rss ~setups:!setups ~trace ~traced_rounds:1 ~verify_problems:!verify

let durable_churn_sizes =
  {
    Design.parts = 1; pin_ifaces = 16; ifaces = 400; impls = 3000; subgates = 2; probes = 4000;
    chains = 300; depth = 6; stacks = 4; stack_depth = 4; fanout = 3; iso = 0;
  }

let durable_churn_mix =
  {
    reads = 3000; writes = 3000; selects = 150; txns = 200; txn_writes = false; expands = 150;
    rebinds = 100; creates = 100; checkpoints = 2; hot = 4096; hot_share = 0.9;
  }

let durable_churn ~seed ~seconds ~trace ~work =
  let sz = durable_churn_sizes and mx = durable_churn_mix in
  let template = Filename.concat work "template" and dir = Filename.concat work "churn" in
  (* set-up builds the design and saves it as the template every round
     starts from *)
  let setup () =
    Meter.rm_rf template;
    let t0 = Meter.now_ns () in
    let j = Design.ok "open" (Journal.open_dir template) in
    let m = Model.create () in
    let d = Design.build (Journal.db j) m sz ~seed in
    Design.ok "checkpoint" (Journal.checkpoint j);
    Journal.close j;
    (Meter.secs (Meter.now_ns () - t0), (m, d))
  in
  let setups = ref [] and last = ref None in
  for _ = 1 to 5 do
    last := None;
    Gc.full_major ();
    let t, st = setup () in
    setups := t :: !setups;
    last := Some st
  done;
  let m0, d = Option.get !last in
  let script = generate ~seed ~part:0 d mx in
  let probe = d.parts_of.(0).p_reads.(0) in
  let st = { recoveries = []; snap_reopens = []; replayed = []; disk = 0; snapshot = 0 } in
  let acc = new_acc () in
  let traced_rounds = ref 0 and verify = ref [] in
  ignore
    (rounds ~seconds ~trace (fun ~round ~traced ->
         Meter.copy_journal template dir;
         let j = Design.ok "open" (Journal.open_dir dir) in
         let m = Model.copy m0 in
         Gc.full_major ();
         let k = kernel ~j (Journal.db j) 1 in
         let results = run_round acc k script ~round ~traced in
         if traced then incr traced_rounds;
         st.disk <- Meter.disk_bytes dir;
         st.snapshot <- Meter.file_size (Filename.concat dir "snapshot.bin");
         check acc d m ~round script results;
         Journal.crash j;
         let j', t = reopen dir m probe in
         st.recoveries <- t :: st.recoveries;
         st.replayed <- Journal.wal_records_replayed j' :: st.replayed;
         verify := verify_state d m (Journal.db j') @ !verify;
         Journal.close j';
         if traced then st.snap_reopens <- reopen_snapshot dir probe :: st.snap_reopens));
  let rss = Meter.peak_rss_mb 0 in
  finish acc st ~rss ~setups:!setups ~trace ~traced_rounds:(max 1 !traced_rounds)
    ~verify_problems:!verify
