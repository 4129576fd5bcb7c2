(* The harness's own model of a design: local values, bindings and
   permeability, kept apart from the program so that every answer the
   program gives can be predicted independently. *)

open Compo_core

type ent = {
  sur : int;
  cls : string option;
  mutable local : (string * Value.t) list;
  mutable tx : int;  (** transmitter, or -1 when unbound *)
  mutable txe : ent option;  (** the transmitter's record *)
  mutable inherits : string list;  (** attributes the binding lets through *)
  mutable heirs : ent list;  (** entities bound to this one as transmitter *)
  mutable pos : int;  (** index in its class's extent array *)
}

type t = {
  ents : (int, ent) Hashtbl.t;
  mutable links : int;  (** live inheritance-link entities *)
  perm : (string, string list) Hashtbl.t;
  extents : (string, (int, ent) Hashtbl.t) Hashtbl.t;
  arrays : (string, ent array) Hashtbl.t;  (** extents as arrays, for filtering *)
  columns : (string * string, int array) Hashtbl.t;
      (** resolved integer values per (class, attribute), aligned with
          the extent array and kept current by [set] *)
}

let create () =
  {
    ents = Hashtbl.create 4096;
    links = 0;
    perm = Hashtbl.create 16;
    extents = Hashtbl.create 16;
    arrays = Hashtbl.create 16;
    columns = Hashtbl.create 16;
  }

let copy m =
  let ents = Hashtbl.create (Hashtbl.length m.ents) in
  Hashtbl.iter (fun k e -> Hashtbl.replace ents k { e with sur = e.sur }) m.ents;
  Hashtbl.iter
    (fun _ e ->
      e.txe <- Option.map (fun t -> Hashtbl.find ents t.sur) e.txe;
      e.heirs <- List.map (fun h -> Hashtbl.find ents h.sur) e.heirs)
    ents;
  let extents = Hashtbl.create 16 in
  Hashtbl.iter
    (fun k x ->
      let y = Hashtbl.create (Hashtbl.length x) in
      Hashtbl.iter (fun s _ -> Hashtbl.replace y s (Hashtbl.find ents s)) x;
      Hashtbl.replace extents k y)
    m.extents;
  {
    ents;
    links = m.links;
    perm = Hashtbl.copy m.perm;
    extents;
    arrays = Hashtbl.create 16;
    columns = Hashtbl.create 16;
  }

let permeable m via attrs = Hashtbl.replace m.perm via attrs

let extent m cls =
  match Hashtbl.find_opt m.extents cls with
  | Some x -> x
  | None ->
      let x = Hashtbl.create 256 in
      Hashtbl.replace m.extents cls x;
      x

let add m s ?cls local =
  let e =
    { sur = s; cls; local; tx = -1; txe = None; inherits = []; heirs = []; pos = -1 }
  in
  Hashtbl.replace m.ents s e;
  match cls with
  | Some c ->
      Hashtbl.replace (extent m c) s e;
      Hashtbl.remove m.arrays c;
      Hashtbl.reset m.columns
  | None -> ()

let get m s = Hashtbl.find m.ents s

let bind m ~inheritor ~transmitter ~via =
  let e = get m inheritor in
  e.tx <- transmitter;
  e.txe <- Some (get m transmitter);
  e.inherits <- Option.value ~default:[] (Hashtbl.find_opt m.perm via);
  let t = get m transmitter in
  t.heirs <- e :: t.heirs;
  m.links <- m.links + 1;
  Hashtbl.reset m.columns

let unbind m inheritor =
  let e = get m inheritor in
  Option.iter (fun t -> t.heirs <- List.filter (fun h -> h != e) t.heirs) e.txe;
  Hashtbl.reset m.columns;
  e.tx <- -1;
  e.txe <- None;
  e.inherits <- [];
  m.links <- m.links - 1

(* Inheritance-aware resolution: the value and the number of transmitter
   hops taken to reach it. *)
let rec resolve_ent e attr hops =
  match List.assoc_opt attr e.local with
  | Some v -> (v, hops)
  | None -> (
      match e.txe with
      | Some t when List.mem attr e.inherits -> resolve_ent t attr (hops + 1)
      | _ -> (Value.Null, hops))

let resolve m s attr = resolve_ent (get m s) attr 0

let value_of e attr = fst (resolve_ent e attr 0)

let int_of = function Value.Int v -> v | _ -> min_int

(* A local write: every column over [attr] that holds the writer or an
   inheritor it reaches is brought up to date. *)
let set m s attr v =
  let e = get m s in
  e.local <- (attr, v) :: List.remove_assoc attr e.local;
  let rec touch e =
    (match e.cls with
    | Some c when e.pos >= 0 -> (
        match Hashtbl.find_opt m.columns (c, attr) with
        | Some col -> col.(e.pos) <- int_of (value_of e attr)
        | None -> ())
    | _ -> ());
    List.iter
      (fun h -> if List.mem attr h.inherits && not (List.mem_assoc attr h.local) then touch h)
      e.heirs
  in
  touch e

(* Deletion of an entity without inheritors or subobjects: the store drops
   its own inheritance link with it. *)
let delete m s =
  let e = get m s in
  if e.tx >= 0 then unbind m s;
  (match e.cls with
  | Some c ->
      Hashtbl.remove (extent m c) s;
      Hashtbl.remove m.arrays c;
      Hashtbl.reset m.columns
  | None -> ());
  Hashtbl.remove m.ents s


let entity_count m = Hashtbl.length m.ents + m.links

(* An order-insensitive digest of a set of surrogates, so a select's rows
   can be checked against the model's filter of the class extent. *)
type digest = { d_n : int; d_sum : int; d_sq : int }

let empty_digest = { d_n = 0; d_sum = 0; d_sq = 0 }
let digest_add d s = { d_n = d.d_n + 1; d_sum = d.d_sum + s; d_sq = d.d_sq + (s * s) }

let digest_of_rows rows =
  List.fold_left (fun d r -> digest_add d (Surrogate.to_int r)) empty_digest rows

type cmp = Gt | Lt


let filter m ~cls ~attr ~cmp ~k =
  let a =
    match Hashtbl.find_opt m.arrays cls with
    | Some a -> a
    | None ->
        let a = Array.of_seq (Hashtbl.to_seq_values (extent m cls)) in
        Array.iteri (fun i e -> e.pos <- i) a;
        Hashtbl.replace m.arrays cls a;
        a
  in
  let col =
    match Hashtbl.find_opt m.columns (cls, attr) with
    | Some col -> col
    | None ->
        let col = Array.map (fun e -> int_of (value_of e attr)) a in
        Hashtbl.replace m.columns (cls, attr) col;
        col
  in
  let n = ref 0 and sum = ref 0 and sq = ref 0 in
  Array.iteri
    (fun i v ->
      if v <> min_int && (match cmp with Gt -> v > k | Lt -> v < k) then begin
        let s = a.(i).sur in
        incr n;
        sum := !sum + s;
        sq := !sq + (s * s)
      end)
    col;
  { d_n = !n; d_sum = !sum; d_sq = !sq }
