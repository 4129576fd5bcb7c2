(* Clock, raw samples, spans and process facts for the harness. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

(* Growable float vector of raw samples. *)
type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0. in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let append v w = for i = 0 to w.n - 1 do push v w.a.(i) done

let sorted v =
  let s = Array.sub v.a 0 v.n in
  Array.sort compare s;
  s

(* Exact quantile of the raw samples, by linear interpolation between
   closest ranks (Python's statistics.quantiles "inclusive" method). *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median_of l =
  let v = samples () in
  List.iter (push v) l;
  quantile_sorted (sorted v) 0.5

(* Harness-side spans, recorded only in traced rounds: id, name, start,
   end, parent span (-1 for none) and the script operation they belong
   to.  [span] hands its own id to [f], so nested calls can name it as
   their parent. *)
type span = {
  sp_id : int;
  sp_name : string;
  sp_start : int;
  sp_end : int;
  sp_parent : int;
  sp_op : int;
}

type tracer = {
  mutable on : bool;
  mutable spans : span list;
  mutable next : int;
  lock : Mutex.t;  (** served clients record from several threads *)
}

let tracer = { on = false; spans = []; next = 0; lock = Mutex.create () }

let span ?(parent = -1) ~op name f =
  if not tracer.on then f (-1)
  else begin
    let id = Mutex.protect tracer.lock (fun () ->
        let id = tracer.next in
        tracer.next <- id + 1;
        id)
    in
    let t0 = now_ns () in
    let r = f id in
    let t1 = now_ns () in
    let s = { sp_id = id; sp_name = name; sp_start = t0; sp_end = t1; sp_parent = parent; sp_op = op } in
    Mutex.protect tracer.lock (fun () -> tracer.spans <- s :: tracer.spans);
    r
  end

(* Count and mean duration in ns of the spans with this name. *)
let span_stats name =
  let n = ref 0 and t = ref 0 in
  List.iter
    (fun s ->
      if s.sp_name = name then begin
        incr n;
        t := !t + (s.sp_end - s.sp_start)
      end)
    tracer.spans;
  (!n, if !n = 0 then 0. else float_of_int !t /. float_of_int !n)

let write_spans path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\top\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" s.sp_id s.sp_name s.sp_start s.sp_end
        s.sp_parent s.sp_op)
    (List.rev tracer.spans);
  close_out oc

(* Peak resident set, in MiB, of a process (VmHWM). *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in path in
  let r = ref 0. in
  (try
     while true do
       let l = input_line ic in
       if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
         Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
             r := float_of_int kb /. 1024.)
     done
   with End_of_file -> ());
  close_in ic;
  !r

let file_size p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 65536 in
    if n > 0 then begin
      output oc buf 0 n;
      go ()
    end
  in
  go ();
  close_in ic;
  close_out oc

(* A journal directory's durable files (not its LOCK). *)
let journal_files = [ "snapshot.bin"; "wal.log" ]

(* Copy a journal directory's durable files; with [~wal:false] only its
   snapshot, so a reopen of the copy replays nothing. *)
let copy_journal ?(wal = true) src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  List.iter
    (fun f ->
      let s = Filename.concat src f in
      if Sys.file_exists s && (wal || f <> "wal.log") then copy_file s (Filename.concat dst f))
    journal_files

let disk_bytes dir =
  List.fold_left (fun acc f -> acc + file_size (Filename.concat dir f)) 0 journal_files
