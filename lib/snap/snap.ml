open Warden_util
open Warden_machine
module Engine = Warden_sim.Engine
module Memsys = Warden_sim.Memsys
module Protocol = Warden_proto.Protocol

let magic = "WSNP"
(* 2: the engine payload no longer carries the sharded scheduler's
   enqueue sequence, commit window and pop count.
   3: no energy accumulators (energy is priced from the counters); the
   counters gain Sstats.core_cycles and Pstats.cam_lookups and lose the
   DRAM write counter, which nothing ever incremented. *)
let version = 3

(* The fingerprint is every configuration value the simulated results
   depend on, written as actual values (not a hash) so a mismatch names
   the offending field. Host-side knobs — sched_quantum and obs_level —
   are deliberately excluded: results are bit-identical across them by
   the engine's determinism invariant, so one snapshot serves any of
   those settings. *)
let fingerprint_fields (cfg : Config.t) ~proto_name =
  [
    ("protocol", `S proto_name);
    ("sockets", `I cfg.Config.sockets);
    ("cores_per_socket", `I cfg.Config.cores_per_socket);
    ("threads_per_core", `I cfg.Config.threads_per_core);
    ("l1_bytes", `I cfg.Config.l1_bytes);
    ("l1_ways", `I cfg.Config.l1_ways);
    ("l2_bytes", `I cfg.Config.l2_bytes);
    ("l2_ways", `I cfg.Config.l2_ways);
    ("l3_bytes_per_core", `I cfg.Config.l3_bytes_per_core);
    ("l3_ways", `I cfg.Config.l3_ways);
    ("l1_lat", `I cfg.Config.l1_lat);
    ("l2_lat", `I cfg.Config.l2_lat);
    ("l3_lat", `I cfg.Config.l3_lat);
    ("dram_lat", `I cfg.Config.dram_lat);
    ("intra_hop_lat", `I cfg.Config.intra_hop_lat);
    ("inter_socket_lat", `I cfg.Config.inter_socket_lat);
    ( "hop_matrix",
      `A (match cfg.Config.hop_matrix with None -> [||] | Some m -> m) );
    ("llc_remote", `B cfg.Config.llc_remote);
    ("dram_remote", `B cfg.Config.dram_remote);
    ("freq_ghz", `F cfg.Config.freq_ghz);
    ("ward_region_capacity", `I cfg.Config.ward_region_capacity);
    ("reconcile_per_block", `I cfg.Config.reconcile_per_block);
    ("recon_inplace_sole", `B cfg.Config.recon_inplace_sole);
    ("store_buffer_entries", `I cfg.Config.store_buffer_entries);
    ("sector_bytes", `I (Warden_cache.Linedata.sector_bytes ()));
  ]

let w_field w = function
  | `S s -> Bin.w_string w s
  | `I i -> Bin.w_int w i
  | `B b -> Bin.w_bool w b
  | `F f -> Bin.w_float w f
  | `A a -> Bin.w_int_array w a

let field_to_string = function
  | `S s -> s
  | `I i -> string_of_int i
  | `B b -> string_of_bool b
  | `F f -> string_of_float f
  | `A a ->
      "["
      ^ String.concat "," (Array.to_list (Array.map string_of_int a))
      ^ "]"

let r_field r = function
  | `S _ -> `S (Bin.r_string r)
  | `I _ -> `I (Bin.r_int r)
  | `B _ -> `B (Bin.r_bool r)
  | `F _ -> `F (Bin.r_float r)
  | `A _ -> `A (Bin.r_int_array r)

let write_fingerprint w cfg ~proto_name =
  let fields = fingerprint_fields cfg ~proto_name in
  Bin.w_int w (List.length fields);
  List.iter (fun (name, v) -> Bin.w_string w name; w_field w v) fields

let check_fingerprint r cfg ~proto_name =
  let fields = fingerprint_fields cfg ~proto_name in
  let n = Bin.r_int r in
  if n <> List.length fields then
    Bin.corrupt
      (Printf.sprintf "Snap: %d fingerprint fields, expected %d" n
         (List.length fields));
  List.iter
    (fun (name, expect) ->
      let got_name = Bin.r_string r in
      if got_name <> name then
        Bin.corrupt
          (Printf.sprintf "Snap: fingerprint field %S, expected %S" got_name
             name);
      let got = r_field r expect in
      if got <> expect then
        Bin.corrupt
          (Printf.sprintf
             "Snap: %s mismatch: snapshot has %s, this machine has %s" name
             (field_to_string got) (field_to_string expect)))
    fields

let proto_name eng = Protocol.name (Memsys.protocol (Engine.memsys eng))

let to_bytes eng =
  let w = Bin.writer ~capacity:(1 lsl 16) () in
  write_fingerprint w (Engine.config eng) ~proto_name:(proto_name eng);
  Engine.snapshot eng w;
  let body = Bin.contents w in
  let out = Bin.writer ~capacity:(Bytes.length body + 64) () in
  Bin.w_string out magic;
  Bin.w_int out version;
  Bin.w_bytes out body;
  Bin.w_int out (Bin.checksum body ~pos:0 ~len:(Bytes.length body));
  Bin.contents out

(* Validate the envelope (magic, version, checksum) and return a reader
   positioned at the fingerprint. *)
let open_body bytes =
  let r = Bin.reader bytes in
  let m = try Bin.r_string r with Bin.Corrupt _ -> "" in
  if m <> magic then Bin.corrupt "Snap: not a warden snapshot (bad magic)";
  let v = Bin.r_int r in
  if v <> version then
    Bin.corrupt
      (Printf.sprintf "Snap: snapshot version %d, this build reads %d" v
         version);
  let body = Bin.r_bytes r in
  let ck = Bin.r_int r in
  if ck <> Bin.checksum body ~pos:0 ~len:(Bytes.length body) then
    Bin.corrupt "Snap: checksum mismatch (truncated or corrupt snapshot)";
  Bin.reader body

let restore eng bytes =
  let r = open_body bytes in
  check_fingerprint r (Engine.config eng) ~proto_name:(proto_name eng);
  Engine.restore eng r

let describe bytes =
  let r = open_body bytes in
  let n = Bin.r_int r in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "warden snapshot v%d, %d bytes\n" version
       (Bytes.length bytes));
  (* Render the stored fingerprint without needing a matching machine:
     field kinds are recovered from a reference default config. *)
  let reference =
    fingerprint_fields (Config.single_socket ()) ~proto_name:""
  in
  if n = List.length reference then
    List.iter
      (fun (_, kind) ->
        let name = Bin.r_string r in
        let v = r_field r kind in
        Buffer.add_string b
          (Printf.sprintf "  %-22s %s\n" name (field_to_string v)))
      reference
  else Buffer.add_string b "  (unknown fingerprint layout)\n";
  Buffer.contents b

let save_file eng path =
  let bytes = to_bytes eng in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_bytes oc bytes)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let len = in_channel_length ic in
      let bytes = Bytes.create len in
      really_input ic bytes 0 len;
      bytes)

let load_file eng path = restore eng (read_file path)
