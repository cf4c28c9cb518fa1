(* Tests for the warden.check model checker: exhaustive exploration of the
   small model (MESI, WARDen, and the MESI/WARDen lockstep equivalence),
   deterministic fuzzing, mutation coverage — deliberately broken
   protocols must be caught with short, shrunk counterexamples — and the
   core-symmetry reduction of the explorer's visited set. *)

open Warden_machine
open Warden_proto
open Warden_check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let pass name outcome =
  match outcome with
  | Check.Pass { states; transitions; complete } ->
      Alcotest.(check bool) (name ^ ": explored something") true
        (states > 0 && transitions > 0);
      (states, transitions, complete)
  | Check.Fail ce ->
      Alcotest.failf "%s: unexpected counterexample:\n%s" name ce.Check.trace

let fail name outcome =
  match outcome with
  | Check.Fail ce ->
      Alcotest.(check bool) (name ^ ": has violations") true
        (ce.Check.violations <> []);
      Alcotest.(check bool) (name ^ ": trace rendered") true
        (contains ce.Check.trace "violation:");
      ce
  | Check.Pass _ -> Alcotest.failf "%s: bug not caught" name

(* --- exhaustive exploration ------------------------------------------------ *)

(* The MESI small model (3 cores, 2 blocks, 2 regions, 1 store per core and
   block) is small enough to close: the exact counts double as a
   determinism regression net. Every count here is of states up to core
   renaming; the unreduced counts are pinned by the reference BFS below. *)
let test_mesi_closure () =
  let states, transitions, complete =
    pass "mesi" (Check.explore (Check.mesi ()) ~depth:64)
  in
  Alcotest.(check bool) "state space exhausted" true complete;
  Alcotest.(check int) "states" 8109 states;
  Alcotest.(check int) "transitions" 85818 transitions

let test_warden_depth8 () =
  let states, transitions, _ =
    pass "warden" (Check.explore (Check.warden ()) ~depth:8)
  in
  Alcotest.(check int) "states" 36870 states;
  Alcotest.(check int) "transitions" 206575 transitions

let test_equivalence_depth8 () =
  let states, transitions, _ =
    pass "mesi=warden" (Check.explore (Check.equivalence ()) ~depth:8)
  in
  Alcotest.(check int) "states" 13289 states;
  Alcotest.(check int) "transitions" 89240 transitions

(* The snooping-MSI small model also closes: no E state, so it is smaller
   than MESI's. *)
let test_msi_bus_closure () =
  let states, transitions, complete =
    pass "msi-bus" (Check.explore (Check.msi_bus ()) ~depth:64)
  in
  Alcotest.(check bool) "state space exhausted" true complete;
  Alcotest.(check int) "states" 3889 states;
  Alcotest.(check int) "transitions" 41412 transitions

(* SI/SD with the fence alphabet: the canonical key carries the per-core
   synced/fresh monitor bits. The two-core model closes; the three-core
   space is fence-blown (200k+ states at depth 8 alone) and is covered by
   the bounded CLI run and the fuzzer instead. *)
let test_sisd_closure () =
  let states, _, complete =
    pass "sisd" (Check.explore (Check.sisd ~cores:2 ()) ~depth:64)
  in
  Alcotest.(check bool) "state space exhausted" true complete;
  Alcotest.(check int) "states" 2170 states

(* Snooping MSI against directory MESI in data-only lockstep: every
   interleaving leaves identical residency, bytes, dirty masks and
   effective memory (grant states and costs are free to differ). *)
let test_msi_lockstep_depth8 () =
  let states, _, _ =
    pass "msi-bus=mesi" (Check.explore (Check.msi_lockstep ()) ~depth:8)
  in
  Alcotest.(check int) "states" 4902 states

(* --- region round trip ------------------------------------------------------ *)

let world_cfg ?(cores = 2) ?(blks = 1) mk =
  {
    World.cores;
    blks;
    regions = 1;
    store_cap = 0;
    region_cap = 1;
    region_base = 0;
    machine = Config.dual_socket ();
    mk;
  }

let test_region_roundtrip () =
  let w = World.create (world_cfg Warden_core.Warden.protocol) in
  let ops =
    [
      Op.Region_add 0;
      Op.Store { core = 0; blk = 0 };
      Op.Store { core = 1; blk = 0 };
      Op.Region_remove 0;
    ]
  in
  List.iter
    (fun op ->
      ignore (World.apply w op);
      Alcotest.(check (list string))
        (Op.to_string op ^ " leaves a clean state")
        [] (World.check w))
    ops;
  let v = Protocol.observe (World.proto w) ~blk:0 in
  Alcotest.(check bool) "no W state survives the region" true
    (v.Protocol.bv_state <> States.D_W);
  Alcotest.(check bool) "not ward" false
    (Protocol.is_ward (World.proto w) ~blk:0)

let test_world_dump_and_observe () =
  let w = World.create (world_cfg Warden_core.Warden.protocol) in
  ignore (World.apply w (Op.Region_add 0));
  ignore (World.apply w (Op.Store { core = 0; blk = 0 }));
  let v = Protocol.observe (World.proto w) ~blk:0 in
  Alcotest.(check bool) "store under a region grants W" true
    (v.Protocol.bv_state = States.D_W);
  Alcotest.(check (list int)) "sharer recorded" [ 0 ] v.Protocol.bv_sharers;
  let d = World.dump w in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("dump mentions " ^ needle) true (contains d needle))
    [ "protocol warden"; "region ["; "core 0"; "llc"; "oracle" ]

(* --- the fork contract ------------------------------------------------------ *)

let sinks w =
  let f = Protocol.fabric (World.proto w) in
  (f.Fabric.energy, f.Fabric.stats, f.Fabric.obs)

let shares_sinks a b =
  let ea, sa, oa = sinks a and eb, sb, ob = sinks b in
  ea == eb && sa == sb && oa == ob

(* A fork reuses its root's write-only accounting sinks and owns all the
   rest: one more operation on a fork leaves its parent untouched. The ops
   cover every piece of forked state between them — a region removal
   reconciles through the LLC and invalidates copies, a store bumps the
   oracle counts, an eviction empties a cache line. *)
let test_fork_contract () =
  let w = World.create (world_cfg ~blks:2 Warden_core.Warden.protocol) in
  List.iter
    (fun op -> ignore (World.apply w op))
    [
      Op.Region_add 0;
      Op.Store { core = 0; blk = 0 };
      Op.Store { core = 1; blk = 0 };
      Op.Load { core = 0; blk = 1 };
    ];
  let key = World.key w and dump = World.dump w in
  List.iter
    (fun op ->
      let name = Op.to_string op in
      let f = World.copy w in
      ignore (World.apply f op);
      Alcotest.(check bool) (name ^ " changed the fork") true
        (World.key f <> key);
      Alcotest.(check string) (name ^ ": parent key unchanged") key
        (World.key w);
      Alcotest.(check string) (name ^ ": parent dump unchanged") dump
        (World.dump w);
      Alcotest.(check bool) (name ^ ": fork shares energy, stats and obs") true
        (shares_sinks w f))
    [
      Op.Region_remove 0;
      Op.Store { core = 1; blk = 1 };
      Op.Evict { core = 0; blk = 1 };
    ];
  (* A lockstep pair is two roots, forked side by side: each side keeps
     its own sinks through every fork. *)
  let side mk =
    World.create { (world_cfg ~blks:2 mk) with World.region_base = 2 }
  in
  let a = side Warden_core.Warden.protocol and b = side Protocol.mesi in
  let a' = World.copy a and b' = World.copy b in
  Alcotest.(check bool) "sides do not share sinks" false (shares_sinks a b);
  Alcotest.(check bool) "each side's fork keeps its own sinks" true
    (shares_sinks a a' && shares_sinks b b')

(* --- fuzzing ---------------------------------------------------------------- *)

let test_fuzz_deterministic () =
  let run () =
    let cfg = { (Check.warden ()) with Check.store_cap = 0 } in
    match Check.fuzz cfg ~steps:2000 ~seed:42L with
    | Check.Pass { states; transitions; _ } -> (states, transitions)
    | Check.Fail ce -> Alcotest.failf "fuzz found:\n%s" ce.Check.trace
  in
  let a = run () and b = run () in
  Alcotest.(check (pair int int)) "same walk twice" a b

(* --- mutations: injected protocol bugs must be caught ----------------------- *)

(* Broken MESI variants. The mutation must live in the protocol module and
   wrap the fabric at call time: the checker forks worlds before every
   transition, and [Protocol.copy] rebinds the protocol to the forked
   world's (unmutated) fabric — a wrapper baked into the fabric record at
   construction would be silently undone by the first fork. *)
module Mutant_mesi (M : sig
  val name : string
  val wrap : Fabric.t -> Fabric.t
end) =
struct
  type t = { fabric : Fabric.t; dir : Dirstate.t; scratch : Mesi.grant }

  let name = M.name
  let kind = `Directory

  let create fabric =
    let cfg = fabric.Fabric.config in
    {
      fabric;
      dir =
        Dirstate.create ~sockets:cfg.Config.sockets
          ~cores_per_socket:cfg.Config.cores_per_socket ();
      scratch = Mesi.fresh_grant ();
    }

  let fabric t = t.fabric

  let handle_request t ~core ~blk ~write ~holds_s =
    Mesi.handle_request (M.wrap t.fabric) t.dir t.scratch ~core ~blk ~write
      ~holds_s

  let handle_evict t ~core ~blk ~pstate ~data =
    Mesi.handle_evict (M.wrap t.fabric) t.dir ~core ~blk ~pstate ~data

  let region_add _ ~lo:_ ~hi:_ = false
  let is_ward _ ~blk:_ = false
  let region_remove _ ~lo:_ ~hi:_ = 0
  let acquire _ ~core:_ = 0
  let release _ ~core:_ = 0

  let flush_all t =
    let blocks = ref [] in
    Dirstate.iter t.dir (fun blk _ -> blocks := blk :: !blocks);
    List.iter (fun blk -> Mesi.flush_block t.fabric t.dir ~blk) !blocks

  let observe t ~blk = Protocol.view_of_dir t.dir ~blk
  let dump t = "protocol " ^ M.name ^ "\n" ^ Protocol.dump_dir t.dir
  let copy t ~fabric =
    { fabric; dir = Dirstate.copy t.dir; scratch = Mesi.fresh_grant () }

  let save_state t w = Dirstate.save t.dir w
  let restore_state t r = Dirstate.restore t.dir r
end

(* MESI whose invalidations only read the victim's copy (a peek) instead
   of removing it: an upgrading or write-missing core is granted M while
   other cores keep stale copies. *)
module No_inval = Mutant_mesi (struct
  let name = "mesi-no-inval"

  let wrap f =
    { f with Fabric.invalidate_priv = (fun ~core ~blk -> f.Fabric.peek_priv ~core ~blk) }
end)

(* MESI whose dirty writebacks never reach the LLC. *)
module Lost_writeback = Mutant_mesi (struct
  let name = "mesi-lost-writeback"
  let wrap f = { f with Fabric.llc_merge = (fun ~blk:_ _ -> ()) }
end)

let no_inval fabric = Protocol.Packed ((module No_inval), No_inval.create fabric)

let lost_writeback fabric =
  Protocol.Packed ((module Lost_writeback), Lost_writeback.create fabric)

(* WARDen whose region removal drops the CAM entry without reconciling the
   region's blocks: W state (and stale data) survives the region. *)
module Lazy_reconcile = struct
  include Warden_core.Warden.P

  let name = "warden-lazy-reconcile"

  let region_remove t ~lo ~hi =
    ignore (Warden_core.Regions.remove (regions t) ~lo ~hi);
    0
end

let lazy_reconcile fabric =
  Protocol.Packed ((module Lazy_reconcile), Lazy_reconcile.create fabric)

(* Snooping MSI whose invalidations only peek the victim's copy. The wrap
   is re-applied in [create] and [copy], so it survives the checker's
   forking the same way the call-time wraps above do: a write upgrade or
   owner transfer leaves the other cores' stale copies resident. *)
module Bus_no_inval = struct
  include Msi_bus.P

  let name = "msi-bus-no-inval"

  let wrap f =
    {
      f with
      Fabric.invalidate_priv = (fun ~core ~blk -> f.Fabric.peek_priv ~core ~blk);
    }

  let create fabric = Msi_bus.P.create (wrap fabric)
  let copy t ~fabric = Msi_bus.P.copy t ~fabric:(wrap fabric)
end

let bus_no_inval fabric =
  Protocol.Packed ((module Bus_no_inval), Bus_no_inval.create fabric)

(* SI/SD whose release fence reports success without self-downgrading: the
   core's dirty lines never reach the LLC, so the written data is not
   published where the release contract promises it. *)
module Sisd_no_self_down = struct
  include Sisd.P

  let name = "sisd-no-self-down"
  let release _ ~core:_ = 1
end

let sisd_no_self_down fabric =
  Protocol.Packed ((module Sisd_no_self_down), Sisd_no_self_down.create fabric)

(* SI/SD whose acquire fence flushes dirty lines but keeps every resident
   copy: reads after the fence can return stale values another core
   published before it. *)
module Sisd_no_self_inv = struct
  include Sisd.P

  let name = "sisd-no-self-inv"
  let acquire _ ~core:_ = 1
end

let sisd_no_self_inv fabric =
  Protocol.Packed ((module Sisd_no_self_inv), Sisd_no_self_inv.create fabric)

let mutation name mk expect =
  let cfg = Check.of_protocol ~name ~mk () in
  let ce = fail name (Check.explore cfg ~depth:8) in
  let n = List.length ce.Check.ops in
  Alcotest.(check bool)
    (Printf.sprintf "%s: shrunk counterexample is short (%d ops)" name n)
    true
    (n >= 1 && n <= 10);
  Alcotest.(check bool)
    (Printf.sprintf "%s: violation mentions %S" name expect)
    true
    (List.exists (fun v -> contains v expect) ce.Check.violations)

let test_mutation_no_inval () = mutation "mesi-no-inval" no_inval "copies at"
let test_mutation_lost_writeback () =
  mutation "mesi-lost-writeback" lost_writeback "memory lost a write"

let test_mutation_lazy_reconcile () =
  mutation "warden-lazy-reconcile" lazy_reconcile "outside any active"

let test_mutation_bus_no_inval () =
  mutation "msi-bus-no-inval" bus_no_inval "copies at"

let test_mutation_sisd_no_self_down () =
  mutation "sisd-no-self-down" sisd_no_self_down "release fence"

let test_mutation_sisd_no_self_inv () =
  mutation "sisd-no-self-inv" sisd_no_self_inv "acquire fence"

(* The fuzzer must catch mutations too, and shrink deterministically. *)
let test_fuzz_catches_and_shrinks () =
  let cfg =
    {
      (Check.of_protocol ~name:"mesi-no-inval" ~mk:no_inval ()) with
      Check.store_cap = 0;
    }
  in
  let run () =
    match Check.fuzz cfg ~steps:1000 ~seed:7L with
    | Check.Fail ce -> ce.Check.ops
    | Check.Pass _ -> Alcotest.fail "fuzz missed the injected bug"
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "shrunk short" true (List.length a <= 10);
  Alcotest.(check bool) "deterministic shrink" true (a = b)

(* --- core symmetry --------------------------------------------------------- *)

(* The CLI's [--machine mesh]: two cores per socket, so core 2 sits alone. *)
let mesh = Config.numa_mesh ~sockets:32 ~cores_per_socket:2 ()

let worlds = function Check.One w -> [ w ] | Check.Two (a, b) -> [ a; b ]

let primary cfg = List.hd (worlds (Check.make cfg))

(* The explorer without the reduction: a breadth-first search over raw
   {!World.key}s that counts states and transitions the way {!Check.explore}
   does, plus the number of orbits among those states — told apart by the
   least raw key over the whole group, which does not rely on
   {!World.canonical_key}'s signature pruning. The orbit count must be
   exactly the reduced count. *)
let reference_bfs cfg ~depth =
  let visited = Hashtbl.create 65536 and orbits = Hashtbl.create 16384 in
  let q = Queue.create () and transitions = ref 0 in
  let root = primary cfg in
  let group = World.symmetries root in
  let visit w k =
    Hashtbl.replace visited k ();
    let least = List.fold_left (fun m p -> min m (World.key_under w p)) k in
    Hashtbl.replace orbits (least group) ()
  in
  visit root (World.key root);
  Queue.push (root, 0) q;
  while not (Queue.is_empty q) do
    let w, d = Queue.pop q in
    if d < depth then
      List.iter
        (fun op ->
          incr transitions;
          let child = World.copy w in
          ignore (World.apply child op);
          let k = World.key child in
          if not (Hashtbl.mem visited k) then begin
            visit child k;
            if d + 1 < depth then Queue.push (child, d + 1) q
          end)
        (World.enabled w)
  done;
  (Hashtbl.length visited, !transitions, Hashtbl.length orbits)

let test_reference_warden () =
  let states, transitions, orbits = reference_bfs (Check.warden ()) ~depth:8 in
  Alcotest.(check int) "unreduced states" 202032 states;
  Alcotest.(check int) "unreduced transitions" 1103908 transitions;
  Alcotest.(check int) "orbits = reduced states" 36870 orbits

let test_reference_mesi () =
  let states, transitions, orbits = reference_bfs (Check.mesi ()) ~depth:64 in
  Alcotest.(check int) "unreduced states" 43264 states;
  Alcotest.(check int) "unreduced transitions" 458432 transitions;
  Alcotest.(check int) "orbits = reduced states" 8109 orbits

let test_group_orders () =
  let order name cfg expect =
    Alcotest.(check int) name expect (Check.symmetry cfg)
  in
  order "dual socket, 3 cores" (Check.warden ()) 6;
  order "mesh, core 2 on its own socket" (Check.warden ~machine:mesh ()) 2;
  order "dual socket, 4 cores" (Check.mesi ~cores:4 ()) 24;
  order "lockstep" (Check.equivalence ()) 6;
  let w = primary (Check.warden ()) in
  Alcotest.(check string) "identity renaming is the raw key" (World.key w)
    (World.key_under w (List.hd (World.symmetries w)))

(* A lockstep pair is renamed as one: renaming both sides by the same
   element keeps the key, but renaming one side alone gives a different
   pair, which must not be merged with the first. *)
let test_lockstep_key_is_joint () =
  let cfg = Check.equivalence () in
  let pair ops_a ops_b =
    match Check.make cfg with
    | Check.Two (a, b) as sys ->
        List.iter (fun op -> ignore (World.apply a op)) ops_a;
        List.iter (fun op -> ignore (World.apply b op)) ops_b;
        Check.key sys
    | Check.One _ -> Alcotest.fail "equivalence is a lockstep pair"
  in
  let store c = [ Op.Store { core = c; blk = 0 } ] in
  Alcotest.(check string) "same renaming on both sides"
    (pair (store 0) (store 0))
    (pair (store 1) (store 1));
  Alcotest.(check bool) "one side renamed alone" true
    (pair (store 0) (store 0) <> pair (store 0) (store 1))

let rename_op p = function
  | Op.Load { core; blk } -> Op.Load { core = p.(core); blk }
  | Op.Store { core; blk } -> Op.Store { core = p.(core); blk }
  | Op.Evict { core; blk } -> Op.Evict { core = p.(core); blk }
  | Op.Acquire c -> Op.Acquire p.(c)
  | Op.Release c -> Op.Release p.(c)
  | (Op.Region_add _ | Op.Region_remove _) as op -> op

(* A load or store by [core] returns the core's own slot, [encode core blk
   k] (or the initial zero); renamed, that is [encode p.(core) blk k].
   [encode] is affine in [k]. *)
let rename_value p ~core ~blk v =
  if Int64.equal v 0L then v
  else
    Int64.add v
      (Int64.sub
         (World.encode ~core:p.(core) ~blk 1)
         (World.encode ~core ~blk 1))

let op_site = function
  | Op.Load { core; blk } | Op.Store { core; blk } -> Some (core, blk)
  | _ -> None

let perm_string p =
  String.concat "" (Array.to_list (Array.map string_of_int p))

(* One op on every world of a system: the per-world results and whether
   the audit is clean, or the exception the op raised. *)
let run_op cfg sys op =
  match List.map (fun w -> World.apply w op) (worlds sys) with
  | rs -> Ok (rs, Check.audit cfg sys = [])
  | exception e -> Error (Printexc.to_string e)

(* A seeded random walk, replayed renamed by every group element from a
   fresh system, step by step: the renamed run must accept the same ops,
   return the renamed values, audit clean exactly when the original does,
   match its latencies where the config compares them, and reach the state
   [key_under] predicts. Returns the first divergence. *)
let symmetry_divergence (cfg : Check.cfg) ~steps ~seed =
  let cfg = { cfg with Check.store_cap = 0 } in
  let orig = Check.make cfg in
  let lead = List.hd (worlds orig) in
  let runs =
    List.map (fun p -> (p, Check.make cfg)) (World.symmetries lead)
  in
  let latencies = cfg.Check.lockstep <> None && not cfg.Check.data_only in
  let rng = Warden_util.Splitmix.make seed in
  let rec walk i =
    match World.enabled lead with
    | [] -> None
    | _ when i > steps -> None
    | en -> (
        let op = List.nth en (Warden_util.Splitmix.int rng (List.length en)) in
        let expect = run_op cfg orig op in
        let diverges (p, sys) =
          let op' = rename_op p op in
          let why =
            match (expect, run_op cfg sys op') with
            | Error _, Error _ -> None
            | Error e, Ok _ -> Some ("only the original raised " ^ e)
            | Ok _, Error e -> Some ("only the renamed run raised " ^ e)
            | Ok (ra, ca), Ok (rb, cb) ->
                let value (r : World.result) =
                  match (op_site op, r.World.value) with
                  | Some (core, blk), Some v ->
                      Some (rename_value p ~core ~blk v)
                  | _, v -> v
                in
                let same (a : World.result) (b : World.result) =
                  a.World.accepted = b.World.accepted
                  && value a = b.World.value
                  && ((not latencies) || a.World.latency = b.World.latency)
                in
                let key_of f ws = String.concat "|" (List.map f ws) in
                if not (List.for_all2 same ra rb) then Some "results differ"
                else if ca <> cb then Some "audits differ"
                else if
                  key_of World.key (worlds sys)
                  <> key_of (fun w -> World.key_under w p) (worlds orig)
                then Some "renamed state is not key_under"
                else None
          in
          Option.map
            (Printf.sprintf "step %d, %s renamed by %s: %s" i (Op.to_string op)
               (perm_string p))
            why
        in
        match (List.find_map diverges runs, expect) with
        | (Some _ as d), _ -> d
        | None, Error _ -> None
        | None, Ok _ -> walk (i + 1))
  in
  walk 1

let test_symmetry_commutes () =
  List.iter
    (fun (cfg : Check.cfg) ->
      match symmetry_divergence cfg ~steps:300 ~seed:0x5EEDL with
      | None -> ()
      | Some d -> Alcotest.failf "%s: not symmetric: %s" cfg.Check.name d)
    [
      Check.mesi ();
      Check.warden ();
      Check.msi_bus ();
      Check.sisd ();
      Check.equivalence ();
      Check.msi_lockstep ();
      Check.warden ~machine:mesh ();
    ]

(* MESI that never invalidates core 2's copies: correct for cores 0 and 1,
   so only a renaming that moves core 2 exposes it. *)
module No_inval_core2 = Mutant_mesi (struct
  let name = "mesi-no-inval-core2"

  let wrap f =
    {
      f with
      Fabric.invalidate_priv =
        (fun ~core ~blk ->
          if core = 2 then f.Fabric.peek_priv ~core ~blk
          else f.Fabric.invalidate_priv ~core ~blk);
    }
end)

let test_symmetry_guard_bites () =
  let cfg =
    Check.of_protocol ~name:"mesi-no-inval-core2"
      ~mk:(fun f ->
        Protocol.Packed ((module No_inval_core2), No_inval_core2.create f))
      ()
  in
  Alcotest.(check bool) "asymmetric mutant flagged" true
    (symmetry_divergence cfg ~steps:300 ~seed:0x5EEDL <> None)

let suite =
  [
    Alcotest.test_case "mesi: full state space" `Slow test_mesi_closure;
    Alcotest.test_case "warden: all interleavings to depth 8" `Slow
      test_warden_depth8;
    Alcotest.test_case "mesi=warden lockstep to depth 8" `Slow
      test_equivalence_depth8;
    Alcotest.test_case "msi-bus: full state space" `Slow test_msi_bus_closure;
    Alcotest.test_case "sisd: full state space" `Slow test_sisd_closure;
    Alcotest.test_case "msi-bus=mesi data lockstep to depth 8" `Slow
      test_msi_lockstep_depth8;
    Alcotest.test_case "region add/remove round trip" `Quick
      test_region_roundtrip;
    Alcotest.test_case "dump and observe" `Quick test_world_dump_and_observe;
    Alcotest.test_case "fork shares only the accounting sinks" `Quick
      test_fork_contract;
    Alcotest.test_case "fuzz is deterministic" `Quick test_fuzz_deterministic;
    Alcotest.test_case "mutation: dropped invalidations" `Quick
      test_mutation_no_inval;
    Alcotest.test_case "mutation: lost writebacks" `Quick
      test_mutation_lost_writeback;
    Alcotest.test_case "mutation: skipped reconciliation" `Quick
      test_mutation_lazy_reconcile;
    Alcotest.test_case "mutation: snoop kept stale sharers" `Quick
      test_mutation_bus_no_inval;
    Alcotest.test_case "mutation: dropped self-downgrade" `Quick
      test_mutation_sisd_no_self_down;
    Alcotest.test_case "mutation: dropped self-invalidate" `Quick
      test_mutation_sisd_no_self_inv;
    Alcotest.test_case "fuzz catches and shrinks" `Quick
      test_fuzz_catches_and_shrinks;
    Alcotest.test_case "unreduced reference: warden to depth 8" `Slow
      test_reference_warden;
    Alcotest.test_case "unreduced reference: mesi closure" `Slow
      test_reference_mesi;
    Alcotest.test_case "symmetry group orders" `Quick test_group_orders;
    Alcotest.test_case "lockstep pairs are renamed jointly" `Quick
      test_lockstep_key_is_joint;
    Alcotest.test_case "renamings commute with every configuration" `Quick
      test_symmetry_commutes;
    Alcotest.test_case "symmetry guard flags an asymmetric mutant" `Quick
      test_symmetry_guard_bites;
  ]

let () = Alcotest.run "warden-check" [ ("check", suite) ]
