(* Determinism and fast-path differential tests.

   The engine's inline fast path (Config.sched_quantum > 0) claims to be
   bit-identical to the fully scheduled legacy execution (sched_quantum =
   0): same simulated cycles, same event and protocol statistics, same
   final memory image. These tests hold it to that claim, on both
   protocols, across fixed fork-tree shapes, random programs, a
   conflict-heavy pingpong kernel and real benchmarks — and additionally
   pin down that the simulator is
   deterministic (same seed, same everything). *)

open Warden_machine
open Warden_sim
open Warden_runtime

let cfg_q quantum = { (Config.dual_socket ()) with Config.sched_quantum = quantum }

(* --- fork-tree programs (same shape family as test_random_programs) --- *)

type prog = Leaf of int | Node of prog * prog

let rec size = function Leaf _ -> 1 | Node (l, r) -> 1 + size l + size r

let gen_prog =
  QCheck2.Gen.(
    sized_size (int_range 1 24)
    @@ fix (fun self n ->
           if n <= 1 then map (fun w -> Leaf w) (int_range 1 24)
           else
             frequency
               [
                 (1, map (fun w -> Leaf w) (int_range 1 24));
                 ( 3,
                   map2
                     (fun l r -> Node (l, r))
                     (self (n / 2))
                     (self (n - 1 - (n / 2))) );
               ]))

let out_len = 24

let interpret ~input ~scratch prog =
  let rec go path slot prog =
    let out = Sarray.create ~len:out_len ~elt_bytes:8 in
    (match prog with
    | Leaf work ->
        for i = 0 to out_len - 1 do
          Par.tick 1;
          Sarray.set out i
            (Int64.add
               (Sarray.get input ((path + (i * work)) mod Sarray.length input))
               (Int64.of_int ((path * 1000) + i)))
        done
    | Node (l, r) ->
        let lo, ro =
          Par.par2
            (fun () -> go ((2 * path) + 1) (slot + 1) l)
            (fun () -> go ((2 * path) + 2) (slot + 1 + size l) r)
        in
        for i = 0 to out_len - 1 do
          Par.tick 1;
          Sarray.set out i (Int64.logxor (Sarray.get lo i) (Sarray.get ro i))
        done);
    for i = 0 to out_len - 1 do
      Sarray.set scratch ((slot * out_len) + i) (Sarray.get out i)
    done;
    out
  in
  go 0 0 prog

(* Everything observable about one simulation run. *)
type snapshot = {
  makespan : int;
  sstats : Sstats.t;
  pstats : Warden_proto.Pstats.t;
  energy : float * float * float;
  out : int64 array;
  scratch : int64 array;
  dump : string; (* final directory state *)
}

let run_tree ~quantum proto prog =
  let eng = Engine.create (cfg_q quantum) ~proto in
  let ms = Engine.memsys eng in
  let ntasks = size prog in
  let (out, scratch), _ =
    Par.run eng (fun () ->
        let input = Sarray.create ~len:256 ~elt_bytes:8 in
        Warden_pbbs.Bkit.gen_ints ms input ~seed:17L ~bound:1_000_003L;
        let scratch = Sarray.create ~len:(ntasks * out_len) ~elt_bytes:8 in
        (interpret ~input ~scratch prog, scratch))
  in
  Memsys.flush_all ms;
  let en = Memsys.energy ms in
  {
    makespan = (Memsys.sstats ms).Sstats.cycles;
    sstats = Memsys.sstats ms;
    pstats = Memsys.pstats ms;
    energy = (Energy.network_pj en, Energy.processor_pj en, Energy.total_pj en);
    out = Array.init out_len (fun i -> Sarray.peek_host ms out i);
    scratch = Array.init (ntasks * out_len) (fun i -> Sarray.peek_host ms scratch i);
    dump = Warden_proto.Protocol.dump (Memsys.protocol ms);
  }

(* Conflict-heavy pingpong: every thread hammers one shared counter (each
   RMW invalidates the previous owner's copy, so inline hits constantly
   interleave with real coherence transitions) between private-stride
   hits. [out] is the counter, [scratch] the private lanes. *)
let run_pingpong ~quantum proto =
  let eng = Engine.create (cfg_q quantum) ~proto in
  let ms = Engine.memsys eng in
  let ctr = Memsys.alloc ms ~bytes:8 ~align:64 in
  let nthreads = min 8 (Config.num_threads (cfg_q quantum)) in
  let lanes = Memsys.alloc ms ~bytes:(nthreads * 64) ~align:64 in
  let body t () =
    let open Engine.Ops in
    let mine = lanes + (t * 64) in
    for i = 0 to 149 do
      ignore (fetch_add ctr ~size:8 1L);
      store mine ~size:8 (Int64.of_int (i + t));
      ignore (load mine ~size:8);
      tick 1
    done
  in
  let makespan = Engine.run eng (Array.init nthreads body) in
  Memsys.flush_all ms;
  let en = Memsys.energy ms in
  let out = [| Memsys.peek ms ctr ~size:8 |] in
  Alcotest.(check int64) "pingpong: counter totals all increments"
    (Int64.of_int (150 * nthreads)) out.(0);
  {
    makespan;
    sstats = Memsys.sstats ms;
    pstats = Memsys.pstats ms;
    energy = (Energy.network_pj en, Energy.processor_pj en, Energy.total_pj en);
    out;
    scratch =
      Array.init nthreads (fun t -> Memsys.peek ms (lanes + (t * 64)) ~size:8);
    dump = Warden_proto.Protocol.dump (Memsys.protocol ms);
  }

let snap_equal a b =
  a.makespan = b.makespan && a.sstats = b.sstats && a.pstats = b.pstats
  && a.energy = b.energy && a.out = b.out && a.scratch = b.scratch
  && a.dump = b.dump

let check_snap_equal label a b =
  (* Headline fields first for a readable failure, then the whole thing. *)
  Alcotest.(check int) (label ^ ": makespan") a.makespan b.makespan;
  Alcotest.(check int)
    (label ^ ": instructions")
    a.sstats.Sstats.instructions b.sstats.Sstats.instructions;
  Alcotest.(check int)
    (label ^ ": sb_stalls") a.sstats.Sstats.sb_stalls b.sstats.Sstats.sb_stalls;
  Alcotest.(check int)
    (label ^ ": invalidations")
    a.pstats.Warden_proto.Pstats.invalidations
    b.pstats.Warden_proto.Pstats.invalidations;
  Alcotest.(check bool) (label ^ ": full snapshot") true (snap_equal a b)

let protos = [ (`Mesi, "mesi"); (`Warden, "warden") ]

let fixed_shapes =
  let rec left n = if n = 0 then Leaf 3 else Node (left (n - 1), Leaf 1) in
  let rec right n = if n = 0 then Leaf 5 else Node (Leaf 2, right (n - 1)) in
  let rec bal n = if n = 0 then Leaf 7 else Node (bal (n - 1), bal (n - 1)) in
  [ ("single leaf", Leaf 4); ("left spine", left 6); ("right spine", right 6);
    ("balanced depth 4", bal 4) ]

(* Every fixed input as a runner: the fork-tree shapes plus pingpong. *)
let fixed_runs =
  List.map
    (fun (name, prog) ->
      (name, fun ~quantum proto -> run_tree ~quantum proto prog))
    fixed_shapes
  @ [ ("pingpong conflicts", run_pingpong) ]

(* 1. Determinism: the same run twice gives the same everything. *)
let determinism_tests =
  List.map
    (fun (name, run) ->
      Alcotest.test_case ("repeat run: " ^ name) `Quick (fun () ->
          List.iter
            (fun (proto, pname) ->
              check_snap_equal
                (Printf.sprintf "%s/%s" name pname)
                (run ~quantum:4096 proto) (run ~quantum:4096 proto))
            protos))
    fixed_runs

(* 2. Differential: fast path (various quanta) vs legacy (quantum 0). *)
let differential_tests =
  List.map
    (fun (name, run) ->
      Alcotest.test_case ("fast path = legacy: " ^ name) `Quick (fun () ->
          List.iter
            (fun (proto, pname) ->
              let legacy = run ~quantum:0 proto in
              List.iter
                (fun q ->
                  check_snap_equal
                    (Printf.sprintf "%s/%s q=%d" name pname q)
                    legacy (run ~quantum:q proto))
                [ 1; 64; 4096 ])
            protos))
    fixed_runs

let prop_differential prog =
  List.for_all
    (fun (proto, _) ->
      let legacy = run_tree ~quantum:0 proto prog in
      List.for_all
        (fun q -> snap_equal legacy (run_tree ~quantum:q proto prog))
        [ 1; 4096 ])
    protos

let qtest =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:15
       ~name:"random programs: fast path = legacy (both protocols)"
       ~print:(fun p ->
         let rec pp = function
           | Leaf w -> Printf.sprintf "L%d" w
           | Node (l, r) -> Printf.sprintf "(%s %s)" (pp l) (pp r)
         in
         pp p)
       gen_prog prop_differential)

(* 3. Differential on real benchmarks, full run_result (includes derived
   floats and the verified bit). *)
let bench_differential name =
  Alcotest.test_case ("benchmark: " ^ name) `Quick (fun () ->
      let spec = Option.get (Warden_pbbs.Suite.find name) in
      List.iter
        (fun (proto, pname) ->
          let run q =
            Warden_harness.Exp.run_bench ~quick:true ~config:(cfg_q q) ~proto
              spec
          in
          let legacy = run 0 and fast = run 4096 in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s verified" name pname)
            true fast.Warden_harness.Exp.verified;
          Alcotest.(check int)
            (Printf.sprintf "%s/%s cycles" name pname)
            legacy.Warden_harness.Exp.cycles fast.Warden_harness.Exp.cycles;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s full result" name pname)
            true (legacy = fast))
        protos)

let suite =
  determinism_tests @ differential_tests
  @ [ qtest ]
  @ List.map bench_differential [ "fib"; "palindrome"; "msort" ]

let () = Alcotest.run "warden-determinism" [ ("determinism", suite) ]
