(* Tests for warden.machine: configuration derivations, topology maps and
   the energy accounting. *)

open Warden_machine

let test_table2_values () =
  let c = Config.dual_socket () in
  Alcotest.(check int) "cores" 24 (Config.num_cores c);
  Alcotest.(check int) "threads" 24 (Config.num_threads c);
  Alcotest.(check int) "l1 sets: 32KB/8way/64B" 64 (Config.l1_sets c);
  Alcotest.(check int) "l2 sets: 256KB/8way/64B" 512 (Config.l2_sets c);
  (* 2.5MB x 12 cores / 20 ways / 64B = 24576 lines/way, rounded down to a
     power of two. *)
  Alcotest.(check int) "l3 sets per socket" 16384 (Config.l3_sets_per_socket c);
  Alcotest.(check int) "latencies" 71 c.Config.l3_lat

let test_topology_maps () =
  let c = Config.dual_socket () in
  Alcotest.(check int) "thread->core" 5 (Config.core_of_thread c 5);
  Alcotest.(check int) "core->socket 0" 0 (Config.socket_of_core c 11);
  Alcotest.(check int) "core->socket 1" 1 (Config.socket_of_core c 12);
  Alcotest.(check int) "home interleave even" 0 (Config.home_socket c 4);
  Alcotest.(check int) "home interleave odd" 1 (Config.home_socket c 5);
  let smt = Config.single_socket ~threads_per_core:2 () in
  Alcotest.(check int) "smt siblings share a core" (Config.core_of_thread smt 0)
    (Config.core_of_thread smt 1);
  Alcotest.(check int) "24 threads on 12 cores" 24 (Config.num_threads smt)

let test_presets () =
  Alcotest.(check int) "single socket" 12 (Config.num_cores (Config.single_socket ()));
  Alcotest.(check int) "4 sockets" 48
    (Config.num_cores (Config.many_socket ~sockets:4 ()));
  let d = Config.disaggregated () in
  Alcotest.(check bool) "disagg home is remote" true d.Config.llc_remote;
  Alcotest.(check int) "1us at 3.3GHz" 3300 d.Config.inter_socket_lat

let test_with_cores () =
  let c = Config.with_cores (Config.dual_socket ()) 8 in
  Alcotest.(check int) "restricted" 8 (Config.num_cores c);
  Alcotest.check_raises "not divisible"
    (Invalid_argument "Config.with_cores: not divisible") (fun () ->
      ignore (Config.with_cores (Config.dual_socket ()) 7));
  Alcotest.check_raises "too many"
    (Invalid_argument "Config.with_cores: too many") (fun () ->
      ignore (Config.with_cores (Config.single_socket ()) 26))

let test_pp_mentions_key_fields () =
  let s = Format.asprintf "%a" Config.pp (Config.dual_socket ()) in
  List.iter
    (fun needle ->
      let found =
        let n = String.length needle and h = String.length s in
        let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("pp mentions " ^ needle) true found)
    [ "dual-socket"; "32 KB"; "6-16-71"; "3.3 GHz" ]

(* --- Many-socket NUMA machines (the 64→512-core scaling study) ----------- *)

let test_many_socket_geometry () =
  let c = Config.many_socket ~sockets:32 ~cores_per_socket:16 () in
  Alcotest.(check int) "512 cores" 512 (Config.num_cores c);
  Alcotest.(check int) "core 511 on socket 31" 31 (Config.socket_of_core c 511);
  Alcotest.(check int) "uniform fabric without a matrix"
    c.Config.inter_socket_lat
    (Config.hop_lat c ~from_socket:0 ~to_socket:31);
  (* Default geometry is untouched: many_socket without the option is the
     Table-2 12-core socket the existing goldens pin. *)
  Alcotest.(check int) "default cores per socket" 12
    (Config.many_socket ~sockets:4 ()).Config.cores_per_socket

let test_numa_mesh_matrix () =
  List.iter
    (fun sockets ->
      let c = Config.numa_mesh ~sockets () in
      let n = Config.num_cores c in
      Alcotest.(check int)
        (Printf.sprintf "%d sockets x 16 cores" sockets)
        (sockets * 16) n;
      (* Hop-matrix laws: diagonal is the on-chip leg, off-diagonal legs
         are symmetric, at least one socket link, and bounded by the mesh
         diameter. *)
      for f = 0 to sockets - 1 do
        for g = 0 to sockets - 1 do
          let fg = Config.hop_lat c ~from_socket:f ~to_socket:g in
          let gf = Config.hop_lat c ~from_socket:g ~to_socket:f in
          if f = g then
            Alcotest.(check int) "diagonal" c.Config.intra_hop_lat fg
          else begin
            if fg <> gf then
              Alcotest.failf "asymmetric hop %d->%d: %d vs %d" f g fg gf;
            if fg < c.Config.inter_socket_lat then
              Alcotest.failf "hop %d->%d below one socket link" f g;
            if
              fg
              > c.Config.inter_socket_lat
                + (2 * sockets * c.Config.intra_hop_lat)
            then Alcotest.failf "hop %d->%d beyond mesh diameter" f g
          end
        done
      done)
    [ 2; 4; 8; 16; 32; 62 ];
  Alcotest.check_raises "63 sockets rejected"
    (Invalid_argument "Config.numa_mesh: sockets must be in 1..62") (fun () ->
      ignore (Config.numa_mesh ~sockets:63 ()))

let test_numa_mesh_adjacency_cheaper () =
  (* 32 sockets form an 4x8 mesh (rows x cols): neighbours pay one link,
     opposite corners pay the full Manhattan path. *)
  let c = Config.numa_mesh ~sockets:32 () in
  let near = Config.hop_lat c ~from_socket:0 ~to_socket:1 in
  let far = Config.hop_lat c ~from_socket:0 ~to_socket:31 in
  Alcotest.(check int) "adjacent = one socket link" c.Config.inter_socket_lat
    near;
  Alcotest.(check bool) "corner-to-corner costs more" true (far > near)

let test_pp_round_trip_many_socket () =
  (* pp must render every machine, including matrix configs, and mention
     the geometry and the NUMA matrix; rendering is also deterministic. *)
  let c = Config.numa_mesh ~sockets:32 () in
  let s = Format.asprintf "%a" Config.pp c in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("pp mentions " ^ needle) true (contains needle))
    [ "32-socket-mesh-16c"; "32 socket(s) x 16 cores"; "NUMA hop matrix" ];
  Alcotest.(check string) "pp deterministic" s
    (Format.asprintf "%a" Config.pp c)

(* --- Energy ------------------------------------------------------------- *)

(* A ledger priced from the given counts, every other count zero. *)
let ledger ?(core_cycles = 0) ?(l1 = 0) ?(l2 = 0) ?(l3 = 0) ?(dir = 0)
    ?(cam = 0) ?(dram = 0) ?(msgs_ctl_intra = 0) ?(msgs_ctl_inter = 0)
    ?(msgs_data_intra = 0) ?(msgs_data_inter = 0) ?(bus_cycles = 0) () =
  Energy.of_counts ~core_cycles ~l1 ~l2 ~l3 ~dir ~cam ~dram ~msgs_ctl_intra
    ~msgs_ctl_inter ~msgs_data_intra ~msgs_data_inter ~bus_cycles

let test_energy_buckets () =
  let c = Energy.default_costs in
  let e =
    ledger ~core_cycles:(2 * 100) ~l1:3 ~l2:1 ~l3:1 ~dir:2 ~cam:1 ~dram:1 ()
  in
  Alcotest.(check (float 0.)) "core bucket"
    (2. *. 100. *. c.Energy.core_cycle_pj)
    (Energy.core_pj e);
  Alcotest.(check (float 0.)) "cache bucket"
    ((3. *. c.Energy.l1_pj) +. c.Energy.l2_pj +. c.Energy.l3_pj
    +. (2. *. c.Energy.dir_pj) +. c.Energy.cam_pj)
    (Energy.cache_pj e);
  Alcotest.(check (float 0.)) "dram bucket" c.Energy.dram_pj (Energy.dram_pj e);
  Alcotest.(check (float 0.)) "no network" 0. (Energy.network_pj e);
  Alcotest.(check (float 0.)) "processor = core+cache+dram"
    (Energy.core_pj e +. Energy.cache_pj e +. Energy.dram_pj e)
    (Energy.processor_pj e)

let test_energy_messages () =
  let c = Energy.default_costs in
  let e = ledger ~msgs_ctl_intra:1 () in
  Alcotest.(check (float 0.)) "intra ctl" c.Energy.msg_intra_pj
    (Energy.network_pj e);
  let e = ledger ~msgs_ctl_intra:1 ~msgs_data_inter:1 () in
  Alcotest.(check (float 0.)) "inter data = 5 flits"
    (c.Energy.msg_intra_pj +. (5. *. c.Energy.msg_inter_pj))
    (Energy.network_pj e);
  let e = ledger ~msgs_ctl_inter:2 ~msgs_data_intra:1 ~bus_cycles:7 ~l1:1 () in
  Alcotest.(check (float 0.)) "bus cycles price as network"
    ((2. *. c.Energy.msg_inter_pj) +. (5. *. c.Energy.msg_intra_pj)
    +. (7. *. c.Energy.bus_cycle_pj))
    (Energy.network_pj e);
  Alcotest.(check (float 0.)) "total = processor + network"
    (Energy.processor_pj e +. Energy.network_pj e)
    (Energy.total_pj e)

let test_energy_inter_dwarfs_intra () =
  let c = Energy.default_costs in
  Alcotest.(check bool) "inter-socket messages cost much more" true
    (c.Energy.msg_inter_pj > 5. *. c.Energy.msg_intra_pj)

let suite =
  [
    Alcotest.test_case "table 2 values" `Quick test_table2_values;
    Alcotest.test_case "topology maps" `Quick test_topology_maps;
    Alcotest.test_case "presets" `Quick test_presets;
    Alcotest.test_case "with_cores" `Quick test_with_cores;
    Alcotest.test_case "config printing" `Quick test_pp_mentions_key_fields;
    Alcotest.test_case "many-socket geometry" `Quick test_many_socket_geometry;
    Alcotest.test_case "numa mesh hop matrix" `Quick test_numa_mesh_matrix;
    Alcotest.test_case "numa mesh adjacency" `Quick
      test_numa_mesh_adjacency_cheaper;
    Alcotest.test_case "pp round-trip (mesh)" `Quick
      test_pp_round_trip_many_socket;
    Alcotest.test_case "energy buckets" `Quick test_energy_buckets;
    Alcotest.test_case "energy messages" `Quick test_energy_messages;
    Alcotest.test_case "energy cost ordering" `Quick test_energy_inter_dwarfs_intra;
  ]

let () = Alcotest.run "warden-machine" [ ("machine", suite) ]
