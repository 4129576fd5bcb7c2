(* The benchmark's design: the paper's gates schema (pin interfaces,
   interfaces, implementations with component uses, timing probes), deep
   version chains, and shared component stacks for expansion.  Every
   object is built here and mirrored into the harness's model. *)

open Compo_core
module Gates = Compo_scenarios.Gates
module Workload = Compo_scenarios.Workload

let ok what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Errors.to_string e)

type sizes = {
  parts : int;  (** disjoint partitions (one per served connection) *)
  pin_ifaces : int;
  ifaces : int;
  impls : int;
  subgates : int;  (** component uses per implementation *)
  probes : int;
  chains : int;
  depth : int;  (** version-chain depth, in transmitter hops *)
  stacks : int;
  stack_depth : int;
  fanout : int;  (** objects per stack level = parts per assembly *)
  iso : int;  (** isolation-probe objects (served only) *)
}

(* One partition of the design, as the script generator needs it. *)
type part = {
  p_ifaces : int array;
  p_impls : int array;
  p_probes : int array;
  p_roots : int array;  (** chain roots (carry the local Payload) *)
  p_reads : (int * string) array;  (** inherited (entity, attribute) pairs *)
  p_tops : int array;  (** assembly tops for expansion *)
}

type t = {
  sizes : sizes;
  parts_of : part array;
  iso_objs : int array;
  levels : (int, int) Hashtbl.t;  (** stack object -> its level *)
}

let iface_cls p = Printf.sprintf "Iface_%d" p
let impl_cls p = Printf.sprintf "Impl_%d" p
let probe_cls p = Printf.sprintf "Probe_%d" p
let iso_cls = "Iso"

(* Type names of the version chains Workload.chain_schema defines. *)
let node_name k = "Node" ^ string_of_int k
let node_rel k = "AllOf_" ^ node_name k

let define_schema db (m : Model.t) sz =
  ok "gates schema" (Gates.define_schema db);
  ok "chain schema" (Workload.chain_schema db ~depth:sz.depth);
  if sz.stacks > 0 then
    ok "composite schema" (Workload.composite_schema db ~depth:sz.stack_depth);
  for p = 0 to sz.parts - 1 do
    ok "class" (Database.create_class db ~name:(iface_cls p) ~member_type:"GateInterface");
    ok "class" (Database.create_class db ~name:(impl_cls p) ~member_type:"GateImplementation");
    ok "class" (Database.create_class db ~name:(probe_cls p) ~member_type:"TimingProbe")
  done;
  ok "class" (Database.create_class db ~name:iso_cls ~member_type:"GateImplementation");
  Model.permeable m "AllOf_GateInterface_I" [];
  Model.permeable m "AllOf_GateInterface" [ "Length"; "Width" ];
  Model.permeable m "SomeOf_Gate" [ "Length"; "Width"; "TimeBehavior" ];
  for k = 0 to sz.depth - 1 do
    Model.permeable m (node_rel k) [ "Payload" ]
  done;
  for k = 0 to sz.stack_depth - 1 do
    Model.permeable m ("AllOf_Comp" ^ string_of_int k) [ "Payload" ]
  done

let s2i = Surrogate.to_int
let i2s = Surrogate.of_int

let obj db m ~ty ?cls attrs =
  let s = s2i (ok "new_object" (Database.new_object db ?cls ~ty ~attrs ())) in
  Model.add m s ?cls attrs;
  s

let sub db m ~parent ~subclass attrs =
  let s =
    s2i (ok "new_subobject" (Database.new_subobject db ~parent:(i2s parent) ~subclass ~attrs ()))
  in
  Model.add m s attrs;
  s

let bind db m ~via ~transmitter ~inheritor =
  ignore
    (ok "bind" (Database.bind db ~via ~transmitter:(i2s transmitter) ~inheritor:(i2s inheritor) ()));
  Model.bind m ~inheritor ~transmitter ~via

let int v = Value.Int v

(* Template values lie in [1, 1000]; the scripts write values above 1000,
   so a lost write can never read back as the value it replaced. *)
let build db m sz ~seed =
  let rng = Random.State.make [| seed; 0x5e7 |] in
  let v () = 1 + Random.State.int rng 1000 in
  define_schema db m sz;
  let levels = Hashtbl.create 64 in
  let build_part p =
    let pins =
      Array.init sz.pin_ifaces (fun _ ->
          let pi = obj db m ~ty:"GateInterface_I" [] in
          List.iteri
            (fun i io ->
              ignore
                (sub db m ~parent:pi ~subclass:"Pins"
                   [ ("InOut", Gates.io_value io); ("PinLocation", Value.point 0 i) ]))
            [ Gates.In; Gates.In; Gates.Out ];
          pi)
    in
    let reads = ref [] in
    let ifaces =
      Array.init sz.ifaces (fun i ->
          let s =
            obj db m ~ty:"GateInterface" ~cls:(iface_cls p)
              [ ("Length", int (v ())); ("Width", int (v ())) ]
          in
          bind db m ~via:"AllOf_GateInterface_I" ~transmitter:pins.(i mod sz.pin_ifaces)
            ~inheritor:s;
          s)
    in
    let pick_iface () = ifaces.(Random.State.int rng sz.ifaces) in
    let impls =
      Array.init sz.impls (fun _ ->
          let s =
            obj db m ~ty:"GateImplementation" ~cls:(impl_cls p) [ ("TimeBehavior", int (v ())) ]
          in
          bind db m ~via:"AllOf_GateInterface" ~transmitter:(pick_iface ()) ~inheritor:s;
          reads := (s, "Length") :: (s, "Width") :: !reads;
          for j = 1 to sz.subgates do
            let g =
              sub db m ~parent:s ~subclass:"SubGates"
                [ ("GateLocation", Value.point j j) ]
            in
            bind db m ~via:"AllOf_GateInterface" ~transmitter:(pick_iface ()) ~inheritor:g;
            reads := (g, "Length") :: (g, "Width") :: !reads
          done;
          s)
    in
    let probes =
      Array.init sz.probes (fun i ->
          let s =
            obj db m ~ty:"TimingProbe" ~cls:(probe_cls p) [ ("ProbeNote", Value.Str "t") ]
          in
          bind db m ~via:"SomeOf_Gate" ~transmitter:impls.(i mod sz.impls) ~inheritor:s;
          reads := (s, "Length") :: (s, "Width") :: (s, "TimeBehavior") :: !reads;
          s)
    in
    let roots =
      Array.init sz.chains (fun _ ->
          let root = obj db m ~ty:(node_name 0) [ ("Payload", int (v ())) ] in
          let prev = ref root in
          for k = 1 to sz.depth do
            let n = obj db m ~ty:(node_name k) [] in
            bind db m ~via:(node_rel (k - 1)) ~transmitter:!prev ~inheritor:n;
            reads := (n, "Payload") :: !reads;
            prev := n
          done;
          root)
    in
    (* A stack has [fanout] objects per level; every object above level 0
       uses each object of the level below once, through a Parts
       subobject bound to it. *)
    let tops =
      Array.concat
        (List.init sz.stacks (fun _ ->
             let below = ref [||] in
             for l = 0 to sz.stack_depth do
               let ty = "Comp" ^ string_of_int l in
               let level =
                 Array.init sz.fanout (fun _ ->
                     let s = obj db m ~ty [ ("Payload", int (v ())) ] in
                     Hashtbl.replace levels s l;
                     Array.iter
                       (fun c ->
                         let part = sub db m ~parent:s ~subclass:"Parts" [] in
                         bind db m ~via:("AllOf_Comp" ^ string_of_int (l - 1)) ~transmitter:c
                           ~inheritor:part;
                         reads := (part, "Payload") :: !reads)
                       !below;
                     s)
               in
               below := level
             done;
             !below))
    in
    let reads = Array.of_list (List.rev !reads) in
    (* a seeded permutation: its head is the hot set *)
    for i = Array.length reads - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = reads.(i) in
      reads.(i) <- reads.(j);
      reads.(j) <- t
    done;
    { p_ifaces = ifaces; p_impls = impls; p_probes = probes; p_roots = roots; p_reads = reads;
      p_tops = tops }
  in
  let parts_of = Array.init sz.parts build_part in
  let iso_objs =
    Array.init sz.iso (fun _ ->
        let s = obj db m ~ty:"GateImplementation" ~cls:iso_cls [ ("TimeBehavior", int 7) ] in
        bind db m ~via:"AllOf_GateInterface" ~transmitter:parts_of.(0).p_ifaces.(0) ~inheritor:s;
        s)
  in
  { sizes = sz; parts_of; iso_objs; levels }

(* Closed forms of a stack assembly at level [l]: the expansion has
   N(l) = 1 + fanout * (1 + N(l-1)) nodes with N(0) = 1, and its bill of
   materials lists every object of every level below once, the ones at
   level k with multiplicity fanout^(l-1-k). *)
let rec expand_nodes ~fanout l = if l = 0 then 1 else 1 + (fanout * (1 + expand_nodes ~fanout (l - 1)))

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)
let bom_multiplicity ~fanout ~top ~level = pow fanout (top - 1 - level)
