(* Fixed operation scripts generated from the seed.  A round replays one
   script in full, so every round of every run does the same work. *)

type op =
  | Read of int * string
  | Write of int * string
  | Select of string * string * Model.cmp * int
  | Par_select of string * string * Model.cmp * int
      (** a select at [jobs] = available cores: design_session's
          parallel phase, outside the round scripts *)
  | Txn of (int * string) array * (int * string) option
  | Expand of int
  | Rebind of int * int  (** re-point an implementation to another interface *)
  | Create of int  (** a fresh timing probe bound to this implementation *)
  | Delete of int  (** the probe made by the [Create] at this script index *)
  | Checkpoint

type mix = {
  reads : int;
  writes : int;
  selects : int;
  txns : int;
  txn_writes : bool;
  expands : int;
  rebinds : int;
  creates : int;  (** each create is deleted again later in the script *)
  checkpoints : int;
  hot : int;  (** hot head of the read targets *)
  hot_share : float;
}

let kind = function
  | Read _ -> "read"
  | Write _ -> "write"
  | Select _ -> "select"
  | Par_select _ -> "par_select"
  | Txn _ -> "txn"
  | Expand _ -> "expand"
  | Rebind _ -> "rebind"
  | Create _ -> "create"
  | Delete _ -> "delete"
  | Checkpoint -> "checkpoint"

(* The value written by op [i] of round [r]: always above the template's
   range and different from round to round. *)
let value ~round i = 1001 + (((round * 7919) + (i * 104729)) mod 1000)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Write slots cycle through a seeded permutation of the partition's
   writable attributes, so a round writes a fixed set of them. *)
let write_slots rng (p : Design.part) =
  let slots =
    Array.concat
      [
        Array.map (fun s -> (s, "Length")) p.p_ifaces;
        Array.map (fun s -> (s, "Width")) p.p_ifaces;
        Array.map (fun s -> (s, "TimeBehavior")) p.p_impls;
        Array.map (fun s -> (s, "Payload")) p.p_roots;
      ]
  in
  shuffle rng slots;
  slots

let generate ~seed ~part (d : Design.t) (mx : mix) =
  let p = d.parts_of.(part) in
  let rng = Random.State.make [| seed; part; 0x5c1 |] in
  let nreads = Array.length p.p_reads in
  let read_target () =
    if Random.State.float rng 1.0 < mx.hot_share then p.p_reads.(Random.State.int rng mx.hot)
    else p.p_reads.(Random.State.int rng nreads)
  in
  let slots = write_slots rng p in
  let next_slot = ref 0 in
  let slot () =
    let s = slots.(!next_slot mod Array.length slots) in
    incr next_slot;
    s
  in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  (* select shapes and thresholds are spread evenly, not drawn, so every
     seed selects the same mix of extents and selectivities *)
  let cls_select j =
    let k = 200 + (j * 1600 / max 1 mx.selects) in
    match j mod 3 with
    | 0 -> Select (Design.impl_cls part, "Length", Model.Gt, k)
    | 1 -> Select (Design.probe_cls part, "TimeBehavior", Model.Lt, k)
    | _ -> Select (Design.probe_cls part, "Width", Model.Gt, k)
  in
  let txn () =
    let impl = pick p.p_impls in
    let reads = [| (impl, "Length"); read_target (); read_target () |] in
    let w = if mx.txn_writes then Some (impl, "TimeBehavior") else None in
    Txn (reads, w)
  in
  (* every kind is spread evenly over the script (the i-th of c
     operations of a kind sits at (i + 1/2) / c), so every seed puts the
     same mix and the same spacing of operations in a round; the seed
     picks the targets, the values and the hot set *)
  let kinds =
    [
      Array.init mx.reads (fun _ ->
          let s, a = read_target () in
          Read (s, a));
      Array.init mx.writes (fun _ -> Write (0, ""));
      Array.init mx.selects cls_select;
      Array.init mx.txns (fun _ -> txn ());
      Array.init mx.expands (fun _ -> Expand (pick p.p_tops));
      Array.init mx.rebinds (fun _ -> Rebind (pick p.p_impls, pick p.p_ifaces));
      Array.init mx.creates (fun _ -> Create (pick p.p_impls));
    ]
  in
  let keyed =
    List.concat_map
      (fun ops ->
        let c = float_of_int (Array.length ops) in
        Array.to_list (Array.mapi (fun i op -> ((float_of_int i +. 0.5) /. c, op)) ops))
      kinds
  in
  let body = Array.of_list (List.map snd (List.stable_sort (fun (x, _) (y, _) -> compare x y) keyed)) in
  (* writes take their slots in script order *)
  let body =
    Array.map
      (function
        | Write _ ->
            let s, a = slot () in
            Write (s, a)
        | op -> op)
      body
  in
  (* every create is deleted again later: the round leaves as many
     entities as it found *)
  let ops = ref [] and len = ref 0 in
  let push op =
    ops := op :: !ops;
    incr len
  in
  let pending = Queue.create () in
  let n = Array.length body in
  let every = if mx.checkpoints > 0 then max 1 (n / (mx.checkpoints + 1)) else max_int in
  Array.iteri
    (fun i op ->
      push op;
      (match op with Create _ -> Queue.push (!len - 1) pending | _ -> ());
      if Queue.length pending > 8 || (i = n - 1 && not (Queue.is_empty pending)) then
        while not (Queue.is_empty pending) do
          push (Delete (Queue.pop pending))
        done;
      if (i + 1) mod every = 0 && (i + 1) / every <= mx.checkpoints then push Checkpoint)
    body;
  Array.of_list (List.rev !ops)

(* The distinct (entity, attribute) pairs a script writes. *)
let written script =
  let seen = Hashtbl.create 256 in
  Array.iter
    (function
      | Write (s, a) | Txn (_, Some (s, a)) -> Hashtbl.replace seen (s, a) ()
      | _ -> ())
    script;
  Hashtbl.fold (fun k () acc -> k :: acc) seen []
