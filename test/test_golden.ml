(* Golden end-to-end stats snapshot: one small kernel simulated under both
   MESI and WARDen, with the exact instruction / cycle / hit / miss /
   coherence-event counts asserted verbatim.

   These numbers pin the simulator's observable behaviour bit-for-bit: a
   hot-path rewrite (directory layout, grant plumbing, cache probe order)
   must reproduce every one of them, and a future perf PR that silently
   drifts any counter fails here rather than in a paper figure.

   To regenerate after an *intentional* semantic change:
     GOLDEN_DUMP=1 dune exec test/test_golden.exe
   and paste the printed tables below. *)

open Warden_machine
open Warden_sim
open Warden_proto

type snap = {
  instructions : int;
  cycles : int;
  loads : int;
  stores : int;
  rmws : int;
  l1_hits : int;
  l2_hits : int;
  priv_misses : int;
  sb_stalls : int;
  dir_accesses : int;
  invalidations : int;
  downgrades : int;
  fwds : int;
  writebacks : int;
  msgs : int;
  l3_hits : int;
  l3_misses : int;
  zero_fills : int;
  ward_grants : int;
  ward_adds : int;
  ward_removes : int;
  recon_blocks : int;
  recon_flushes : int;
}

let run_kernel ~bench ~scale ~proto =
  let spec = Option.get (Warden_pbbs.Suite.find bench) in
  let eng = Engine.create (Config.dual_socket ()) ~proto in
  let verified = spec.Warden_pbbs.Spec.run ~scale ~seed:0x5EEDF00DL eng in
  Alcotest.(check bool) (bench ^ ": result verified") true verified;
  let ms = Engine.memsys eng in
  let ss = Memsys.sstats ms and ps = Memsys.pstats ms in
  {
    instructions = ss.Sstats.instructions;
    cycles = ss.Sstats.cycles;
    loads = ss.Sstats.loads;
    stores = ss.Sstats.stores;
    rmws = ss.Sstats.rmws;
    l1_hits = ss.Sstats.l1_hits;
    l2_hits = ss.Sstats.l2_hits;
    priv_misses = ss.Sstats.priv_misses;
    sb_stalls = ss.Sstats.sb_stalls;
    dir_accesses = ps.Pstats.dir_accesses;
    invalidations = ps.Pstats.invalidations;
    downgrades = ps.Pstats.downgrades;
    fwds = ps.Pstats.fwds;
    writebacks = ps.Pstats.writebacks;
    msgs = Pstats.total_msgs ps;
    l3_hits = ps.Pstats.l3_hits;
    l3_misses = ps.Pstats.l3_misses;
    zero_fills = ps.Pstats.zero_fills;
    ward_grants = ps.Pstats.ward_grants;
    ward_adds = ps.Pstats.ward_adds;
    ward_removes = ps.Pstats.ward_removes;
    recon_blocks = ps.Pstats.recon_blocks;
    recon_flushes = ps.Pstats.recon_flushes;
  }

let fields =
  [
    ("instructions", fun s -> s.instructions);
    ("cycles", fun s -> s.cycles);
    ("loads", fun s -> s.loads);
    ("stores", fun s -> s.stores);
    ("rmws", fun s -> s.rmws);
    ("l1_hits", fun s -> s.l1_hits);
    ("l2_hits", fun s -> s.l2_hits);
    ("priv_misses", fun s -> s.priv_misses);
    ("sb_stalls", fun s -> s.sb_stalls);
    ("dir_accesses", fun s -> s.dir_accesses);
    ("invalidations", fun s -> s.invalidations);
    ("downgrades", fun s -> s.downgrades);
    ("fwds", fun s -> s.fwds);
    ("writebacks", fun s -> s.writebacks);
    ("msgs", fun s -> s.msgs);
    ("l3_hits", fun s -> s.l3_hits);
    ("l3_misses", fun s -> s.l3_misses);
    ("zero_fills", fun s -> s.zero_fills);
    ("ward_grants", fun s -> s.ward_grants);
    ("ward_adds", fun s -> s.ward_adds);
    ("ward_removes", fun s -> s.ward_removes);
    ("recon_blocks", fun s -> s.recon_blocks);
    ("recon_flushes", fun s -> s.recon_flushes);
  ]

let dump label s =
  Printf.printf "  (* %s *)\n  [\n" label;
  List.iter (fun (n, f) -> Printf.printf "    (%S, %d);\n" n (f s)) fields;
  Printf.printf "  ]\n%!"

let assert_snap label golden s =
  List.iter
    (fun (name, expect) ->
      let actual = (List.assoc name fields) s in
      Alcotest.(check int) (label ^ ": " ^ name) expect actual)
    golden

(* ---- golden tables (captured from the seed simulator) -------------------- *)

let golden_msort_mesi =
  [
    ("instructions", 56207);
    ("cycles", 144034);
    ("loads", 26506);
    ("stores", 9943);
    ("rmws", 10);
    ("l1_hits", 35262);
    ("l2_hits", 0);
    ("priv_misses", 1197);
    ("sb_stalls", 0);
    ("dir_accesses", 1197);
    ("invalidations", 34);
    ("downgrades", 322);
    ("fwds", 166);
    ("writebacks", 389);
    ("msgs", 2973);
    ("l3_hits", 493);
    ("l3_misses", 125);
    ("zero_fills", 407);
    ("ward_grants", 0);
    ("ward_adds", 9);
    ("ward_removes", 9);
    ("recon_blocks", 0);
    ("recon_flushes", 0);
  ]

let golden_msort_warden =
  [
    ("instructions", 56019);
    ("cycles", 135431);
    ("loads", 26318);
    ("stores", 9943);
    ("rmws", 10);
    ("l1_hits", 35074);
    ("l2_hits", 0);
    ("priv_misses", 1197);
    ("sb_stalls", 0);
    ("dir_accesses", 1197);
    ("invalidations", 34);
    ("downgrades", 188);
    ("fwds", 99);
    ("writebacks", 133);
    ("msgs", 2906);
    ("l3_hits", 560);
    ("l3_misses", 125);
    ("zero_fills", 407);
    ("ward_grants", 256);
    ("ward_adds", 9);
    ("ward_removes", 9);
    ("recon_blocks", 256);
    ("recon_flushes", 512);
  ]

let golden_fib_mesi =
  [
    ("instructions", 1864);
    ("cycles", 8495);
    ("loads", 335);
    ("stores", 85);
    ("rmws", 26);
    ("l1_hits", 249);
    ("l2_hits", 1);
    ("priv_misses", 196);
    ("sb_stalls", 0);
    ("dir_accesses", 196);
    ("invalidations", 8);
    ("downgrades", 54);
    ("fwds", 29);
    ("writebacks", 26);
    ("msgs", 451);
    ("l3_hits", 117);
    ("l3_misses", 0);
    ("zero_fills", 48);
    ("ward_grants", 0);
    ("ward_adds", 12);
    ("ward_removes", 12);
    ("recon_blocks", 0);
    ("recon_flushes", 0);
  ]

let golden_fib_warden =
  [
    ("instructions", 1864);
    ("cycles", 8495);
    ("loads", 335);
    ("stores", 85);
    ("rmws", 26);
    ("l1_hits", 249);
    ("l2_hits", 1);
    ("priv_misses", 196);
    ("sb_stalls", 0);
    ("dir_accesses", 196);
    ("invalidations", 8);
    ("downgrades", 52);
    ("fwds", 28);
    ("writebacks", 14);
    ("msgs", 450);
    ("l3_hits", 118);
    ("l3_misses", 0);
    ("zero_fills", 48);
    ("ward_grants", 12);
    ("ward_adds", 12);
    ("ward_removes", 12);
    ("recon_blocks", 12);
    ("recon_flushes", 24);
  ]

let kernels =
  [
    ("msort", 1_000, `Mesi, golden_msort_mesi);
    ("msort", 1_000, `Warden, golden_msort_warden);
    ("fib", 12, `Mesi, golden_fib_mesi);
    ("fib", 12, `Warden, golden_fib_warden);
  ]

let test_golden () =
  List.iter
    (fun (bench, scale, proto, golden) ->
      let label =
        Printf.sprintf "%s/%s" bench
          (match proto with
          | `Mesi -> "mesi"
          | `Warden -> "warden"
          | `Msi_bus -> "msi-bus"
          | `Sisd -> "sisd")
      in
      let s = run_kernel ~bench ~scale ~proto in
      if Sys.getenv_opt "GOLDEN_DUMP" <> None then dump label s
      else assert_snap label golden s)
    kernels

(* ---- energy pins ------------------------------------------------------- *)

(* Exact network / processor / total picojoules. Every default cost is a
   whole number, so these sums are exact integers and must not drift by a
   single pJ when the accounting is restructured. Besides the four golden
   runs: fib on the snooping bus and under self-invalidation, and a
   two-phase run on different core counts with a snapshot/restore in
   between (the core bucket charges each phase at its own core count). *)

let energy_of ms =
  let en = Memsys.energy ms in
  (Energy.network_pj en, Energy.processor_pj en, Energy.total_pj en)

let kernel_energy bench scale proto () =
  let spec = Option.get (Warden_pbbs.Suite.find bench) in
  let eng = Engine.create (Config.dual_socket ()) ~proto in
  let verified = spec.Warden_pbbs.Spec.run ~scale ~seed:0x5EEDF00DL eng in
  Alcotest.(check bool) (bench ^ ": result verified") true verified;
  energy_of (Engine.memsys eng)

(* A sharing-heavy load/store/rmw walk over 64 blocks on [threads]
   threads. *)
let phase eng ~threads ~round =
  let module Ops = Engine.Ops in
  let base = Memsys.alloc (Engine.memsys eng) ~bytes:(64 * 64) ~align:64 in
  let body t () =
    for i = 0 to 199 do
      let blk = ((i * 7) + (t * 13) + round) mod 64 in
      let a = base + (64 * blk) in
      if i mod 5 = t mod 5 then Ops.store a ~size:8 (Int64.of_int (i + round))
      else if i mod 16 = 0 then
        ignore (Ops.rmw a ~size:8 (Int64.add 1L) : int64)
      else ignore (Ops.load a ~size:8 : int64);
      Ops.tick 1
    done
  in
  ignore (Engine.run eng (Array.init threads body) : int)

let two_phase_energy () =
  let module Snap = Warden_snap.Snap in
  let cfg = Config.dual_socket () in
  let cold = Engine.create cfg ~proto:`Warden in
  phase cold ~threads:2 ~round:0;
  let mid = Snap.to_bytes cold in
  phase cold ~threads:6 ~round:1;
  let warm = Engine.create cfg ~proto:`Warden in
  Snap.restore warm mid;
  phase warm ~threads:6 ~round:1;
  let e = energy_of (Engine.memsys cold) in
  Alcotest.(check bool) "two-phase: restored energy = cold energy" true
    (e = energy_of (Engine.memsys warm));
  e

(* Captured before energy became a function of the event counters. *)
let golden_energy =
  [
    ("msort/mesi", (31270800.0, 3113927970.0, 3145198770.0));
    ("msort/warden", (30122100.0, 2928126006.0, 2958248106.0));
    ("fib/mesi", (4007400.0, 183558915.0, 187566315.0));
    ("fib/warden", (4007100.0, 183560723.0, 187567823.0));
    ("fib/msi-bus", (681540.0, 80509695.0, 81191235.0));
    ("fib/sisd", (8346000.0, 309640185.0, 317986185.0));
    ("two-phase/warden", (22516500.0, 285348076.0, 307864576.0));
  ]

let energy_runs =
  [
    ("msort/mesi", kernel_energy "msort" 1_000 `Mesi);
    ("msort/warden", kernel_energy "msort" 1_000 `Warden);
    ("fib/mesi", kernel_energy "fib" 12 `Mesi);
    ("fib/warden", kernel_energy "fib" 12 `Warden);
    ("fib/msi-bus", kernel_energy "fib" 12 `Msi_bus);
    ("fib/sisd", kernel_energy "fib" 12 `Sisd);
    ("two-phase/warden", two_phase_energy);
  ]

let test_energy () =
  List.iter
    (fun (label, run) ->
      let net, proc, total = run () in
      if Sys.getenv_opt "GOLDEN_DUMP" <> None then
        Printf.printf "    (%S, (%.1f, %.1f, %.1f));\n%!" label net proc total
      else begin
        let gnet, gproc, gtotal = List.assoc label golden_energy in
        Alcotest.(check (float 0.)) (label ^ ": network_pj") gnet net;
        Alcotest.(check (float 0.)) (label ^ ": processor_pj") gproc proc;
        Alcotest.(check (float 0.)) (label ^ ": total_pj") gtotal total
      end)
    energy_runs

let suite =
  [
    Alcotest.test_case "end-to-end stats snapshot" `Quick test_golden;
    Alcotest.test_case "energy priced exactly" `Quick test_energy;
  ]
let () = Alcotest.run "warden-golden" [ ("golden", suite) ]
