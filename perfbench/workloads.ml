(* The four workloads. Each is a set-up (repeated and timed by the runner)
   and a pass: the fixed work whose host time is [host_s]. A pass verifies
   every operation it attempts; [finish] turns the last pass's simulated
   results (and, in a traced run, its spans) into metrics, and [probe]
   makes the extra layer measurements of a traced run that no pass
   needs. *)

open Warden_machine
module Engine = Warden_sim.Engine
module Memsys = Warden_sim.Memsys
module Sstats = Warden_sim.Sstats
module Pstats = Warden_proto.Pstats
module Spec = Warden_pbbs.Spec
module Suite = Warden_pbbs.Suite
module Exp = Warden_harness.Exp
module Microbench = Warden_harness.Microbench
module Stream = Warden_trace.Stream
module Serve = Warden_serve.Serve
module Workload = Warden_serve.Workload
module Hist = Warden_obs.Hist
module Check = Warden_check.Check
module World = Warden_check.World

type size = Full | Small

type pass = {
  attempted : int;
  failed : int;
  signature : string;
      (** Simulated results of the pass; every pass of a run must repeat
          the first one's. *)
}

type t = {
  setup : unit -> unit;
  pass : unit -> pass;
  finish : host_s:float -> unit;
  probe : unit -> unit;
}

(* --seed 0 selects the repository's own default seeds; any other value
   moves every input generator to a different input of the same size. *)
let derive base n =
  if n = 0 then base
  else Int64.add base (Int64.mul (Int64.of_int n) 0x9E3779B97F4A7C15L)

let pbbs_seed n = derive 0x5EEDF00DL n
let protos = [ `Mesi; `Warden ]
let pname = Exp.proto_name
let fi = float_of_int
let ratio a b = if b = 0. then 0. else a /. b
let pct a b = 100. *. ratio a b
let pki n instrs = ratio (fi n) (fi instrs /. 1000.)
let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let sumf f l = List.fold_left (fun a x -> a +. f x) 0. l
let mean l = ratio (sumf Fun.id l) (fi (List.length l))
let geomean l = exp (mean (List.map log l))

(* Mean host time and allocation of the timed-pass spans [name] carrying
   [attrs], per unit of the work they counted as [per]. *)
let span_cost ?attrs name ~per =
  let spans = Span.find ?attrs name in
  let work = sumf (fun s -> Span.counted s per) spans in
  (1e9 *. ratio (sumf Span.duration spans) work,
   ratio (sumf (fun s -> s.Span.minor_words) spans) work)

(* ------------------------------------------------------------------ *)
(* Simulated statistics of one run, and the modelled-design metrics    *)
(* ------------------------------------------------------------------ *)

type sim = {
  label : string;
  proto : string;
  ok : bool;
  ss : Sstats.t;
  ps : Pstats.t;
  net_pj : float;
  proc_pj : float;
}

let accesses ss = ss.Sstats.loads + ss.Sstats.stores + ss.Sstats.rmws
let invdown ps = ps.Pstats.invalidations + ps.Pstats.downgrades
let instructions sims = sum (fun s -> s.ss.Sstats.instructions) sims
let by proto sims = List.filter (fun s -> s.proto = proto) sims

let sim_of ~label ~proto ~ok ms =
  let en = Memsys.energy ms in
  {
    label;
    proto = pname proto;
    ok;
    ss = Memsys.sstats ms;
    ps = Memsys.pstats ms;
    net_pj = Energy.network_pj en;
    proc_pj = Energy.processor_pj en;
  }

let signature sims =
  String.concat ";"
    (List.map
       (fun s ->
         Printf.sprintf "%s/%s:%b:%d:%d:%d" s.label s.proto s.ok
           s.ss.Sstats.cycles s.ss.Sstats.instructions (invdown s.ps))
       sims)

let exact_sims sims =
  List.iter
    (fun s ->
      let k f = Printf.sprintf "%s.%s.%s" s.label s.proto f in
      Out.exact_int (k "instructions") s.ss.Sstats.instructions;
      Out.exact_int (k "cycles") s.ss.Sstats.cycles;
      Out.exact_int (k "invdown") (invdown s.ps))
    sims

(* Geometric-mean MESI/WARDen cycle ratio over paired runs, and the
   inv+down WARDen avoided per kilo-instruction of the MESI runs. *)
let speedup_invdown sims =
  let m = by "mesi" sims and w = by "warden" sims in
  ( geomean
      (List.map2
         (fun m w -> ratio (fi m.ss.Sstats.cycles) (fi w.ss.Sstats.cycles))
         m w),
    pki (sum (fun s -> invdown s.ps) m - sum (fun s -> invdown s.ps) w)
      (instructions m) )

(* Cache, directory, message, WARDen and energy counters of each
   protocol's runs, per simulated access or kilo-instruction. *)
let design_metrics sims =
  List.iter
    (fun proto ->
      let p = pname proto in
      let mine = by p sims in
      let ss f = sum (fun s -> f s.ss) mine in
      let ps f = sum (fun s -> f s.ps) mine in
      let instrs = ss (fun s -> s.Sstats.instructions) in
      let of_acc name n = Out.metric (name ^ "." ^ p) "%" (pct (fi n) (fi (ss accesses))) in
      let per name n = Out.metric (name ^ "." ^ p) "1/kinstr" (pki n instrs) in
      of_acc "cache.l1_hit_pct" (ss (fun s -> s.Sstats.l1_hits));
      of_acc "cache.l2_hit_pct" (ss (fun s -> s.Sstats.l2_hits));
      of_acc "cache.priv_miss_pct" (ss (fun s -> s.Sstats.priv_misses));
      let l3m = ps (fun p -> p.Pstats.l3_misses) in
      Out.metric ("llc.l3_miss_pct." ^ p) "%"
        (pct (fi l3m) (fi (l3m + ps (fun p -> p.Pstats.l3_hits))));
      per "proto.dir_accesses_pki" (ps (fun p -> p.Pstats.dir_accesses));
      per "proto.inv_pki" (ps (fun p -> p.Pstats.invalidations));
      per "proto.down_pki" (ps (fun p -> p.Pstats.downgrades));
      per "proto.msgs_ctl_intra_pki" (ps (fun p -> p.Pstats.msgs_ctl_intra));
      per "proto.msgs_ctl_inter_pki" (ps (fun p -> p.Pstats.msgs_ctl_inter));
      per "proto.msgs_data_intra_pki" (ps (fun p -> p.Pstats.msgs_data_intra));
      per "proto.msgs_data_inter_pki" (ps (fun p -> p.Pstats.msgs_data_inter));
      per "proto.writebacks_pki" (ps (fun p -> p.Pstats.writebacks));
      per "sim.sb_stall_pki" (ss (fun s -> s.Sstats.sb_stalls));
      Out.metric ("energy.network_pj." ^ p) "pJ" (sumf (fun s -> s.net_pj) mine);
      Out.metric ("energy.processor_pj." ^ p) "pJ" (sumf (fun s -> s.proc_pj) mine);
      if proto = `Warden then begin
        per "core.ward_grants_pki" (ps (fun p -> p.Pstats.ward_grants));
        per "core.recon_blocks_pki" (ps (fun p -> p.Pstats.recon_blocks));
        Out.metric "core.ward_reject_pct" "%"
          (pct
             (fi (ps (fun p -> p.Pstats.ward_rejects)))
             (fi (ps (fun p -> p.Pstats.ward_adds))))
      end)
    protos

(* Host cost of the live program model (runtime, engine and memory
   system) per simulated access, from the traced [run_span] spans. *)
let runtime_metrics ~run_span =
  if Span.traced () then begin
    List.iter
      (fun proto ->
        let p = pname proto in
        let ns, words = span_cost ~attrs:[ ("proto", p) ] run_span ~per:"accesses" in
        Out.metric ("runtime.ns_per_access." ^ p) "ns" ns;
        Out.metric ("runtime.words_per_access." ^ p) "words" words)
      protos;
    let creates = Span.find "engine.create" in
    Out.metric "engine.create_ms" "ms"
      (1e3 *. ratio (sumf Span.duration creates) (fi (List.length creates)))
  end

(* One simulation on a fresh engine: simulated caches start empty. *)
let simulate ~config ~label ~proto run =
  let attrs = [ ("kernel", label); ("proto", pname proto) ] in
  Span.with_ "sim" ~group:(Span.new_group ()) ~attrs (fun () ->
      let eng =
        Span.with_ "engine.create" ~attrs (fun () -> Engine.create config ~proto)
      in
      let ms = Engine.memsys eng in
      let ok, extra = run ~attrs eng in
      (sim_of ~label ~proto ~ok ms, extra))

(* ------------------------------------------------------------------ *)
(* pbbs-dual: Fig. 8 — every PBBS kernel, MESI then WARDen             *)
(* ------------------------------------------------------------------ *)

let run_spec ~quick ~seed spec eng =
  spec.Spec.run ~scale:(Exp.scale_of ~quick spec) ~seed eng

let table1_err_pct rows =
  mean
    (List.map
       (fun r ->
         pct
           (Float.abs (r.Microbench.cycles_per_iter -. r.Microbench.paper_real_hw))
           r.Microbench.paper_real_hw)
       rows)

let pbbs_dual ~seed ~size =
  let quick = size = Small and seed = pbbs_seed seed in
  let config = Config.dual_socket () in
  let last = ref [] and table1 = ref [] in
  let setup () =
    List.iter
      (fun _ -> List.iter (fun proto -> ignore (Engine.create config ~proto)) protos)
      Suite.all
  in
  let live ~proto spec =
    fst
      (simulate ~config ~label:spec.Spec.name ~proto (fun ~attrs eng ->
           ( Span.with_ "spec.run" ~attrs (fun () ->
                 let ok = run_spec ~quick ~seed spec eng in
                 Span.count "accesses"
                   (fi (accesses (Memsys.sstats (Engine.memsys eng))));
                 ok),
             () )))
  in
  let pass () =
    table1 := Span.with_ "microbench.table1" (fun () -> Microbench.table1 ());
    let sims =
      List.concat_map
        (fun spec -> List.map (fun proto -> live ~proto spec) protos)
        Suite.all
    in
    last := sims;
    {
      attempted = List.length sims;
      failed = List.length (List.filter (fun s -> not s.ok) sims);
      signature = signature sims;
    }
  in
  let finish ~host_s =
    let sims = !last in
    let speedup, avoided = speedup_invdown sims in
    Out.metric "sim_mips" "Minstr/s" (ratio (fi (instructions sims)) host_s /. 1e6);
    Out.metric "warden_speedup" "x" speedup;
    Out.paper "warden_speedup" "1.46x mean, Fig. 8a";
    Out.metric "invdown_avoided_pki" "1/kinstr" avoided;
    Out.paper "invdown_avoided_pki" "5-40 per benchmark on the winners, Fig. 9";
    Out.metric "net_energy_saving_pct" "%"
      (mean
         (List.map2
            (fun m w -> pct (m.net_pj -. w.net_pj) m.net_pj)
            (by "mesi" sims) (by "warden" sims)));
    Out.paper "net_energy_saving_pct" "52.9% mean interconnect saving, Fig. 8b";
    Out.metric "table1_err_pct" "%" (table1_err_pct !table1);
    Out.paper "table1_err_pct" "calibration data, not held out";
    design_metrics sims;
    runtime_metrics ~run_span:"spec.run";
    exact_sims sims
  in
  (* msort under WARDen: the engine's own cost (live minus replay of the
     same commit-order stream), and obs counters and full obs against obs
     off. *)
  let probe () =
    let spec = Option.get (Suite.find "msort") in
    let runs = Span.find ~attrs:[ ("kernel", "msort"); ("proto", "warden") ] "spec.run" in
    let live_s = sumf Span.duration runs /. fi (List.length runs) in
    let time_run config =
      let eng = Engine.create config ~proto:`Warden in
      let t0 = Span.now () in
      ignore (run_spec ~quick ~seed spec eng);
      Span.now () -. t0
    in
    let eng = Engine.create config ~proto:`Warden in
    let _, stream =
      Span.with_ "stream.record" (fun () ->
          Stream.record (Engine.memsys eng) (fun () -> run_spec ~quick ~seed spec eng))
    in
    let ms = Engine.memsys (Engine.create config ~proto:`Warden) in
    let t0 = Span.now () in
    let events = Span.with_ "stream.replay" (fun () -> Stream.replay stream ms) in
    let replay_s = Span.now () -. t0 in
    Out.metric "engine.self_ns_per_event" "ns" (1e9 *. (live_s -. replay_s) /. fi events);
    List.iter
      (fun (level, name) ->
        let s = time_run { config with Config.obs_level = level } in
        Out.metric name "%" (pct (s -. live_s) live_s))
      [
        (Config.Obs_counters, "obs.counters_overhead_pct");
        (Config.Obs_full, "obs.full_overhead_pct");
      ]
  in
  { setup; pass; finish; probe }

(* ------------------------------------------------------------------ *)
(* serve-zipf: the open-loop KV mix under MESI and WARDen              *)
(* ------------------------------------------------------------------ *)

let serve_params ~seed ~size =
  let seed = derive Serve.default.Serve.seed seed in
  match size with
  | Full -> { Serve.default with Serve.requests = 200_000; seed }
  | Small -> { Serve.default with Serve.requests = 20_000; keys = 16_384; seed }

let kind_name = function
  | Workload.Read -> "read"
  | Write -> "write"
  | Scan -> "scan"

let serve_zipf ~seed ~size =
  let params = serve_params ~seed ~size in
  let config = Config.dual_socket () in
  let last = ref [] in
  let setup () = List.iter (fun proto -> ignore (Engine.create config ~proto)) protos in
  let serve proto =
    simulate ~config ~label:"serve" ~proto (fun ~attrs eng ->
        let r =
          Span.with_ "serve.run" ~attrs (fun () ->
              let r = Serve.run ~params eng in
              Span.count "accesses" (fi (accesses (Memsys.sstats (Engine.memsys eng))));
              Span.count "requests" (fi r.Serve.requests);
              r)
        in
        (r.Serve.verified, r))
  in
  let pass () =
    let runs = List.map serve protos in
    last := runs;
    let rs = List.map snd runs in
    let equal = match rs with [ m; w ] -> Serve.equal_results m w | _ -> false in
    let failed r =
      if r.Serve.verified && equal then r.Serve.violations else r.Serve.requests
    in
    {
      attempted = sum (fun r -> r.Serve.requests) rs;
      failed = sum failed rs;
      signature =
        signature (List.map fst runs)
        ^ String.concat ";" (List.map (fun r -> Printf.sprintf "%Lx" r.Serve.checksum) rs);
    }
  in
  let finish ~host_s =
    let runs = !last in
    let sims = List.map fst runs in
    let speedup, avoided = speedup_invdown sims in
    Out.metric "sim_mips" "Minstr/s" (ratio (fi (instructions sims)) host_s /. 1e6);
    Out.metric "serve_req_per_s" "1/s"
      (ratio (fi (sum (fun (_, r) -> r.Serve.requests) runs)) host_s);
    Out.metric "warden_speedup" "x" speedup;
    Out.metric "invdown_avoided_pki" "1/kinstr" avoided;
    (* Latency is WARDen's request sojourn time. *)
    let w = List.assoc "warden" (List.map (fun (s, r) -> (s.proto, r)) runs) in
    let p q cls = Hist.percentile w.Serve.lat ~cls q in
    Out.metric "serve_p50_cycles" "cycles" (p 50. Serve.cls_all);
    Out.metric "serve_p999_cycles" "cycles" (p 99.9 Serve.cls_all);
    List.iter
      (fun k ->
        Out.metric ("serve.p999_cycles." ^ kind_name k) "cycles"
          (p 99.9 (Workload.kind_code k)))
      [ Workload.Read; Write; Scan ];
    List.iter
      (fun (s, r) ->
        Out.metric ("serve.invdown_per_kreq." ^ s.proto) "1/kreq"
          (pki (invdown s.ps) r.Serve.requests);
        Out.exact_float ("serve." ^ s.proto ^ ".p999")
          (Hist.percentile r.Serve.lat ~cls:Serve.cls_all 99.9);
        if Span.traced () then begin
          let ns, words = span_cost ~attrs:[ ("proto", s.proto) ] "serve.run" ~per:"requests" in
          Out.metric ("serve.ns_per_request." ^ s.proto) "ns" ns;
          Out.metric ("serve.words_per_request." ^ s.proto) "words" words
        end)
      runs;
    design_metrics sims;
    runtime_metrics ~run_span:"serve.run";
    exact_sims sims
  in
  (* The request generator alone, into one reused batch buffer. *)
  let probe () =
    let gen =
      Workload.make ~keys:params.Serve.keys ~theta:params.Serve.theta
        ~read_frac:params.Serve.read_frac ~scan_frac:params.Serve.scan_frac
        ~seed:params.Serve.seed
    in
    let buf = Array.make params.Serve.batch 0 in
    let t0 = Span.now () in
    Span.with_ "workload.fill" (fun () ->
        let lo = ref 0 in
        while !lo < params.Serve.requests do
          let n = min params.Serve.batch (params.Serve.requests - !lo) in
          Workload.fill gen buf ~lo:!lo ~n;
          lo := !lo + n
        done);
    Out.metric "serve.gen_ns_per_request" "ns"
      (1e9 *. (Span.now () -. t0) /. fi params.Serve.requests)
  in
  { setup; pass; finish; probe }

(* ------------------------------------------------------------------ *)
(* replay-mem: recorded commit-order streams through fresh memsys      *)
(* ------------------------------------------------------------------ *)

type recording = {
  kernel : string;
  stream : Stream.t;
  stats : string;  (** The recording run's [Stream.stats_text]. *)
  verified : bool;
  record_s : float;
}

type replay = {
  stream_of : string;
  proto_of : string;
  replay_ok : bool;
  events : int;
  replay_invdown : int;
}

let replay_kernels = [ "msort"; "dedup" ]

let replay_mem ~seed ~size =
  let quick = size = Small and seed = pbbs_seed seed in
  let config = Config.dual_socket () in
  let recordings = ref [] and last = ref [] in
  let record kernel =
    let spec = Option.get (Suite.find kernel) in
    let attrs = [ ("stream", kernel) ] in
    Span.with_ "recording" ~group:(Span.new_group ()) ~attrs (fun () ->
        let eng =
          Span.with_ "engine.create" ~attrs (fun () -> Engine.create config ~proto:`Warden)
        in
        let ms = Engine.memsys eng in
        let t0 = Span.now () in
        let verified, stream =
          Span.with_ "stream.record" ~attrs (fun () ->
              Stream.record ms (fun () -> run_spec ~quick ~seed spec eng))
        in
        let record_s = Span.now () -. t0 in
        { kernel; stream; stats = Stream.stats_text ms; verified; record_s })
  in
  let setup () = recordings := List.map record replay_kernels in
  let replay r proto =
    let attrs = [ ("stream", r.kernel); ("proto", pname proto) ] in
    Span.with_ "replay" ~group:(Span.new_group ()) ~attrs (fun () ->
        let ms =
          Span.with_ "engine.create" ~attrs (fun () ->
              Engine.memsys (Engine.create config ~proto))
        in
        let events =
          Span.with_ "stream.replay" ~attrs (fun () ->
              let n = Stream.replay r.stream ms in
              Span.count "events" (fi n);
              n)
        in
        let invariants =
          Span.with_ "memsys.check_invariants" ~attrs (fun () ->
              Memsys.check_invariants ms)
        in
        let same_stats =
          pname proto <> Stream.proto r.stream
          || String.equal r.stats (Stream.stats_text ms)
        in
        {
          stream_of = r.kernel;
          proto_of = pname proto;
          replay_ok =
            r.verified && invariants = Ok () && same_stats
            && events = Stream.events r.stream;
          events;
          replay_invdown = invdown (Memsys.pstats ms);
        })
  in
  let pass () =
    let runs =
      List.concat_map (fun r -> List.map (replay r) [ `Warden; `Mesi ]) !recordings
    in
    last := runs;
    {
      attempted = List.length runs;
      failed = List.length (List.filter (fun r -> not r.replay_ok) runs);
      signature =
        String.concat ";"
          (List.map
             (fun r ->
               Printf.sprintf "%s/%s:%b:%d:%d" r.stream_of r.proto_of r.replay_ok
                 r.events r.replay_invdown)
             runs);
    }
  in
  let finish ~host_s =
    Out.metric "replay_mev_per_s" "Mevent/s"
      (ratio (fi (sum (fun r -> r.events) !last)) host_s /. 1e6);
    List.iter
      (fun r ->
        let key = r.stream_of ^ "." ^ r.proto_of in
        Out.metric ("replay.invdown." ^ key) "count" (fi r.replay_invdown);
        Out.exact_int (key ^ ".invdown") r.replay_invdown;
        if Span.traced () then begin
          let ns, words =
            span_cost
              ~attrs:[ ("stream", r.stream_of); ("proto", r.proto_of) ]
              "stream.replay" ~per:"events"
          in
          Out.metric ("memsys.ns_per_event." ^ key) "ns" ns;
          Out.metric ("memsys.words_per_event." ^ key) "words" words
        end)
      !last;
    List.iter
      (fun r -> Out.exact_int (r.kernel ^ ".events") (Stream.events r.stream))
      !recordings;
    Out.metric "trace.bytes_per_event" "B"
      (ratio
         (fi (sum (fun r -> Bytes.length (Stream.to_bytes r.stream)) !recordings))
         (fi (sum (fun r -> Stream.events r.stream) !recordings)))
  in
  (* Recording cost: the recording runs against the same runs with no
     sink. *)
  let probe () =
    let live_s =
      sumf
        (fun r ->
          let eng = Engine.create config ~proto:`Warden in
          let t0 = Span.now () in
          ignore (run_spec ~quick ~seed (Option.get (Suite.find r.kernel)) eng);
          Span.now () -. t0)
        !recordings
    in
    let record_s = sumf (fun r -> r.record_s) !recordings in
    Out.metric "trace.record_overhead_pct" "%" (pct (record_s -. live_s) live_s)
  in
  { setup; pass; finish; probe }

(* ------------------------------------------------------------------ *)
(* check-warden: exhaustive exploration of the default WARDen model    *)
(* ------------------------------------------------------------------ *)

let check_warden ~seed:_ ~size =
  let depth = match size with Full -> 6 | Small -> 4 in
  let cfg = ref None and result = ref (0, 0) and words = ref 0. in
  (* The prologue [Check.explore] repeats inside the pass: the model, its
     initial world, that world's audit and canonical key. *)
  let setup () =
    let c = Check.warden () in
    let world =
      World.create
        {
          World.cores = c.Check.cores;
          blks = c.blks;
          regions = c.regions;
          store_cap = c.store_cap;
          region_cap = c.region_cap;
          region_base = 0;
          machine = c.machine;
          mk = c.mk;
        }
    in
    if World.check world <> [] then failwith "check-warden: initial world fails its audit";
    ignore (World.key world);
    cfg := Some c
  in
  let pass () =
    let w0 = Gc.minor_words () in
    let outcome =
      Span.with_ "check.explore" (fun () -> Check.explore (Option.get !cfg) ~depth)
    in
    words := Gc.minor_words () -. w0;
    match outcome with
    | Check.Pass { states; transitions; _ } ->
        result := (states, transitions);
        {
          attempted = 1;
          failed = 0;
          signature = Printf.sprintf "%d/%d" states transitions;
        }
    | Check.Fail _ -> { attempted = 1; failed = 1; signature = "counterexample" }
  in
  let finish ~host_s =
    let states, transitions = !result in
    Out.metric "check.states" "count" (fi states);
    Out.metric "check.transitions" "count" (fi transitions);
    Out.metric "check.ns_per_transition" "ns" (1e9 *. ratio host_s (fi transitions));
    Out.metric "check.words_per_transition" "words" (ratio !words (fi transitions));
    Out.metric "check.states_per_s" "1/s" (ratio (fi states) host_s);
    Out.exact_int "check.states" states;
    Out.exact_int "check.transitions" transitions;
    Out.exact_float "check.minor_words" !words
  in
  { setup; pass; finish; probe = ignore }

let all =
  [
    ("pbbs-dual", pbbs_dual);
    ("serve-zipf", serve_zipf);
    ("replay-mem", replay_mem);
    ("check-warden", check_warden);
  ]
