open Warden_mem
open Warden_cache
open Warden_machine
open Warden_proto

type cfg = {
  cores : int;
  blks : int;
  regions : int;
  store_cap : int;
  region_cap : int;
  region_base : int;
  machine : Config.t;
  mk : Fabric.t -> Protocol.t;
}

type line = { mutable pstate : States.pstate; data : Linedata.t }

(* Working storage of {!canonical_key}, built once per root world and
   shared by all its forks (a checker explores one family of forks on one
   domain, one state at a time). Each state is extracted once into [hdr],
   [tag] and [src]; every candidate renaming is then written from there
   into [cand] and compared with [best], with no allocation per candidate.
   A line's [src] record is its dirty mask followed by its [cores] 8-byte
   slots, exactly the bytes {!key} writes for it. *)
type scratch = {
  hdr : int array;
      (* per block: directory state, owner, sharer mask, wmulti|ward flags *)
  tag : int array;
      (* per (block, line), line [cores] being the LLC: 0 when absent, else
         the presence byte {!key} writes *)
  src : Bytes.t;
  sg : int array; (* per core: renaming-invariant signature *)
  ord : int array; (* cores sorted by (socket, signature) *)
  run_end : int array; (* end of [ord.(i)]'s tie run *)
  fwd : int array; (* candidate renaming: old core -> new; [ord] inverts it *)
  mutable best : Bytes.t;
  mutable cand : Bytes.t;
}

(* The LLC hashtable is the terminal storage of the small model: lines are
   zero-filled on first touch (`Zero`) and never evicted to a DRAM layer —
   the protocols under test reach memory only through the fabric
   callbacks, so an extra backing level would add latency classification
   without adding checking power. *)
type t = {
  cfg : cfg;
  proto : Protocol.t;
  fabric : Fabric.t;
  alphabet : Op.t list; (* every op of the model, in exploration order *)
  priv : (int, line) Hashtbl.t array;
  llc : (int, Linedata.t) Hashtbl.t;
  counts : int array array; (* [core].(blk): committed stores *)
  active : int array; (* per region index: live activations *)
  (* Fence monitor for [`Self] protocols: [synced.(c)] — every write core
     [c] has committed is published in the LLC and none of its lines are
     dirty (set by acquire/release, cleared by a store); [fresh.(c)] — the
     core holds no lines at all (set by acquire, cleared by any access).
     Untouched (and excluded from [key]) for other protocol kinds. *)
  synced : bool array;
  fresh : bool array;
  mutable nsteps : int;
  scratch : scratch;
}

type result = { latency : int; value : int64 option; accepted : bool }

let cfg t = t.cfg
let proto t = t.proto
let steps t = t.nsteps

(* Interleaving-independent store values: the k-th store by a core to a
   block writes the same value on every path that reaches the same
   per-(core, block) store counts, so canonical states converge across
   reorderings. The encoding is also decodable, which gives the W-block
   containment check its "no out-of-thin-air values" test. *)
let encode ~core ~blk k =
  if k = 0 then 0L
  else Int64.of_int (((((core + 1) * 256) + blk) * 65536) + k)

let decode v =
  if Int64.compare v 0L < 0 || Int64.compare v 0x7FFFFFFFFFFFL > 0 then None
  else
    let v = Int64.to_int v in
    let k = v land 0xFFFF in
    let rest = v lsr 16 in
    let blk = rest land 0xFF in
    let core = (rest lsr 8) - 1 in
    if core < 0 || k = 0 then None else Some (core, blk, k)

let slot_off core = (core land 7) * 8

let probe_of line =
  { Fabric.levels = 2; state = line.pstate; data = line.data }

(* [stats] and [obs] are write-only sinks: no protocol reads
   them back to decide a transition and the checker never inspects them.
   A root world builds them once and every fork reuses its parent's, so a
   fork costs only its caches, LLC lines and protocol state. *)
let mk_fabric ~machine ~stats ~obs
    ~(priv : (int, line) Hashtbl.t array) ~(llc : (int, Linedata.t) Hashtbl.t)
    =
  (* Snooping protocols broadcast over every core of the [machine], which
     may be wider than the model's [cores] — absent cores simply hold
     nothing. *)
  let find_priv ~core ~blk =
    if core >= Array.length priv then None
    else Hashtbl.find_opt priv.(core) blk
  in
  let llc_line blk =
    match Hashtbl.find_opt llc blk with
    | Some l -> l
    | None ->
        let l = Linedata.create () in
        Hashtbl.add llc blk l;
        l
  in
  {
    Fabric.config = machine;
    stats;
    obs;
    peek_priv = (fun ~core ~blk -> Option.map probe_of (find_priv ~core ~blk));
    invalidate_priv =
      (fun ~core ~blk ->
        match find_priv ~core ~blk with
        | None -> None
        | Some line ->
            Hashtbl.remove priv.(core) blk;
            Some (probe_of line));
    downgrade_priv =
      (fun ~core ~blk ->
        match find_priv ~core ~blk with
        | None -> None
        | Some line ->
            line.pstate <- States.P_S;
            Some (probe_of line));
    iter_priv =
      (fun ~core f ->
        if core < Array.length priv then
          Hashtbl.iter (fun blk _ -> f blk) priv.(core));
    read_shared =
      (fun ~blk ->
        match Hashtbl.find_opt llc blk with
        | Some l -> (Linedata.bytes l, `L3)
        | None -> (Linedata.bytes (llc_line blk), `Zero));
    llc_merge = (fun ~blk src -> Linedata.merge_masked ~dst:(llc_line blk) ~src);
    llc_put_full =
      (fun ~blk bytes ->
        let l = Linedata.of_bytes (Bytes.copy bytes) in
        Linedata.mark_all_dirty l;
        Hashtbl.replace llc blk l);
  }

let create cfg =
  if cfg.cores < 1 || cfg.cores > 8 then
    invalid_arg "World.create: cores must be in 1..8";
  if cfg.blks < 1 || cfg.blks > 256 then
    invalid_arg "World.create: blks must be in 1..256";
  let priv = Array.init cfg.cores (fun _ -> Hashtbl.create 16) in
  let llc = Hashtbl.create 64 in
  let stats = Pstats.create () in
  let obs = Warden_obs.Obs.create cfg.machine in
  let fabric = mk_fabric ~machine:cfg.machine ~stats ~obs ~priv ~llc in
  let proto = cfg.mk fabric in
  let alphabet =
    let base = Op.all ~cores:cfg.cores ~blks:cfg.blks ~regions:cfg.regions in
    if Protocol.kind proto = `Self then base @ Op.sync ~cores:cfg.cores
    else base
  in
  {
    cfg;
    proto;
    fabric;
    alphabet;
    priv;
    llc;
    counts = Array.make_matrix cfg.cores cfg.blks 0;
    active = Array.make (max 1 cfg.regions) 0;
    synced = Array.make cfg.cores true;
    fresh = Array.make cfg.cores true;
    nsteps = 0;
    scratch =
      (let n = cfg.cores and lines = cfg.blks * (cfg.cores + 1) in
       {
         hdr = Array.make (4 * cfg.blks) 0;
         tag = Array.make lines 0;
         src = Bytes.create (lines * 8 * (n + 1));
         sg = Array.make n 0;
         ord = Array.make n 0;
         run_end = Array.make n 0;
         fwd = Array.make n 0;
         best = Bytes.empty;
         cand = Bytes.empty;
       });
  }

let copy t =
  let priv =
    Array.map
      (fun tbl ->
        let fresh = Hashtbl.create 16 in
        Hashtbl.iter
          (fun blk line ->
            Hashtbl.add fresh blk
              { pstate = line.pstate; data = Linedata.copy line.data })
          tbl;
        fresh)
      t.priv
  in
  let llc = Hashtbl.create 16 in
  Hashtbl.iter (fun blk l -> Hashtbl.add llc blk (Linedata.copy l)) t.llc;
  let { Fabric.stats; obs; _ } = t.fabric in
  let fabric = mk_fabric ~machine:t.cfg.machine ~stats ~obs ~priv ~llc in
  {
    cfg = t.cfg;
    proto = Protocol.copy t.proto ~fabric;
    fabric;
    alphabet = t.alphabet;
    priv;
    llc;
    counts = Array.map Array.copy t.counts;
    active = Array.copy t.active;
    synced = Array.copy t.synced;
    fresh = Array.copy t.fresh;
    nsteps = t.nsteps;
    scratch = t.scratch;
  }

let region_range t r =
  let lo_b, hi_b = Op.region_blocks ~blks:t.cfg.blks r in
  ( Addr.base_of_block (t.cfg.region_base + lo_b),
    Addr.base_of_block (t.cfg.region_base + hi_b) )

let is_self t = Protocol.kind t.proto = `Self

let enabled t =
  List.filter
    (fun op ->
      match op with
      | Op.Load { core; blk } -> not (Hashtbl.mem t.priv.(core) blk)
      | Op.Store { core; blk } ->
          t.cfg.store_cap <= 0 || t.counts.(core).(blk) < t.cfg.store_cap
      | Op.Evict { core; blk } -> Hashtbl.mem t.priv.(core) blk
      | Op.Region_add r -> t.active.(r) < t.cfg.region_cap
      | Op.Region_remove r -> t.active.(r) > 0
      (* Fences are idempotent; only explore ones that can change state. *)
      | Op.Acquire c -> not t.fresh.(c)
      | Op.Release c -> not t.synced.(c))
    t.alphabet

let install t ~core ~blk (g : Mesi.grant) =
  if not (Mesi.has_fill g) then
    failwith "Check.World: miss grant carried no data";
  let line = { pstate = g.Mesi.pstate; data = Linedata.create () } in
  Linedata.fill_from line.data g.Mesi.fill;
  Hashtbl.replace t.priv.(core) blk line;
  line

let apply t op =
  t.nsteps <- t.nsteps + 1;
  let self = is_self t in
  match op with
  | Op.Load { core; blk } ->
      if self then t.fresh.(core) <- false;
      let line, latency =
        match Hashtbl.find_opt t.priv.(core) blk with
        | Some line -> (line, 0) (* every pstate permits a read *)
        | None ->
            let g =
              Protocol.handle_request t.proto ~core ~blk ~write:false
                ~holds_s:false
            in
            (install t ~core ~blk g, g.Mesi.latency)
      in
      let v = Linedata.load line.data ~off:(slot_off core) ~size:8 in
      { latency; value = Some v; accepted = true }
  | Op.Store { core; blk } ->
      if self then begin
        t.fresh.(core) <- false;
        t.synced.(core) <- false
      end;
      let line, latency =
        match Hashtbl.find_opt t.priv.(core) blk with
        | Some line -> (
            match line.pstate with
            | States.P_M -> (line, 0)
            | States.P_E ->
                (* silent E->M upgrade, as in the simulator *)
                line.pstate <- States.P_M;
                (line, 0)
            | States.P_S ->
                let g =
                  Protocol.handle_request t.proto ~core ~blk ~write:true
                    ~holds_s:true
                in
                if Mesi.has_fill g then
                  Linedata.fill_from line.data g.Mesi.fill;
                line.pstate <- g.Mesi.pstate;
                (line, g.Mesi.latency))
        | None ->
            let g =
              Protocol.handle_request t.proto ~core ~blk ~write:true
                ~holds_s:false
            in
            (install t ~core ~blk g, g.Mesi.latency)
      in
      t.counts.(core).(blk) <- t.counts.(core).(blk) + 1;
      let v = encode ~core ~blk t.counts.(core).(blk) in
      Linedata.store line.data ~off:(slot_off core) ~size:8 v;
      (match line.pstate with
      | States.P_M -> ()
      | States.P_E -> line.pstate <- States.P_M
      | States.P_S -> failwith "Check.World: store granted only S");
      { latency; value = Some v; accepted = true }
  | Op.Evict { core; blk } -> (
      match Hashtbl.find_opt t.priv.(core) blk with
      | None -> { latency = 0; value = None; accepted = false }
      | Some line ->
          Hashtbl.remove t.priv.(core) blk;
          Protocol.handle_evict t.proto ~core ~blk ~pstate:line.pstate
            ~data:line.data;
          { latency = 0; value = None; accepted = true })
  | Op.Region_add r ->
      let lo, hi = region_range t r in
      let ok = Protocol.region_add t.proto ~lo ~hi in
      if ok then t.active.(r) <- t.active.(r) + 1;
      { latency = 0; value = None; accepted = ok }
  | Op.Region_remove r ->
      let lo, hi = region_range t r in
      let latency = Protocol.region_remove t.proto ~lo ~hi in
      if t.active.(r) > 0 then t.active.(r) <- t.active.(r) - 1;
      { latency; value = None; accepted = true }
  | Op.Acquire core ->
      let latency = Protocol.acquire t.proto ~core in
      if self then begin
        t.fresh.(core) <- true;
        t.synced.(core) <- true
      end;
      { latency; value = None; accepted = true }
  | Op.Release core ->
      let latency = Protocol.release t.proto ~core in
      if self then t.synced.(core) <- true;
      { latency; value = None; accepted = true }

(* ---- invariants ---------------------------------------------------------- *)

let holders t blk =
  let acc = ref [] in
  for core = t.cfg.cores - 1 downto 0 do
    if Hashtbl.mem t.priv.(core) blk then acc := core :: !acc
  done;
  !acc

let oracle t ~blk ~slot = encode ~core:slot ~blk t.counts.(slot).(blk)

(* The value a fresh miss would observe for one slot: the LLC line if
   present, zero otherwise (untouched lines are known all-zero). *)
let effective_slot t ~blk ~slot =
  match Hashtbl.find_opt t.llc blk with
  | Some l -> Linedata.load l ~off:(slot_off slot) ~size:8
  | None -> 0L

(* May value [v] legitimately sit in slot [slot] of block [blk]? Inside a
   WARD region, a stale copy may lag, but any value it shows must be a
   historical oracle value of that very slot. *)
let in_history t ~blk ~slot v =
  if Int64.equal v 0L then true
  else
    match decode v with
    | Some (core, b, k) ->
        core = slot && b = blk && k >= 1 && k <= t.counts.(slot).(blk)
    | None -> false

let pstate_name = function
  | States.P_S -> "S"
  | States.P_E -> "E"
  | States.P_M -> "M"

let check t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let self = is_self t in
  for blk = 0 to t.cfg.blks - 1 do
    let v = Protocol.observe t.proto ~blk in
    let ward = Protocol.is_ward t.proto ~blk in
    let hs = holders t blk in
    let show_cores cs = String.concat "," (List.map string_of_int cs) in
    (* 1. directory / private-cache agreement. A [`Self] protocol has no
       directory — its [observe] is reconstructed from the very caches we
       would compare it against, so the check is vacuous there. *)
    (if not self then
    match v.Protocol.bv_state with
    | States.D_I ->
        if hs <> [] then
          err "blk %d: directory I but copies at [%s]" blk (show_cores hs)
    | States.D_E | States.D_M ->
        let s = if v.Protocol.bv_state = States.D_E then "E" else "M" in
        if v.Protocol.bv_owner < 0 then
          err "blk %d: directory %s without an owner" blk s;
        if hs <> [ v.Protocol.bv_owner ] then
          err "blk %d: directory %s owner %d but copies at [%s]" blk s
            v.Protocol.bv_owner (show_cores hs)
        else begin
          let line = Hashtbl.find t.priv.(v.Protocol.bv_owner) blk in
          match (v.Protocol.bv_state, line.pstate) with
          | _, States.P_S ->
              err "blk %d: directory %s but owner %d holds S" blk s
                v.Protocol.bv_owner
          | States.D_M, States.P_E ->
              err "blk %d: directory M but owner %d holds E" blk
                v.Protocol.bv_owner
          | _ -> ()
        end;
        if v.Protocol.bv_sharers <> [] then
          err "blk %d: directory %s with sharer list [%s]" blk s
            (show_cores v.Protocol.bv_sharers)
    | States.D_S ->
        if hs <> v.Protocol.bv_sharers then
          err "blk %d: directory S sharers [%s] but copies at [%s]" blk
            (show_cores v.Protocol.bv_sharers) (show_cores hs);
        List.iter
          (fun c ->
            match Hashtbl.find_opt t.priv.(c) blk with
            | Some { pstate = States.P_S; _ } | None -> ()
            | Some line ->
                err "blk %d: directory S but core %d holds %s" blk c
                  (pstate_name line.pstate))
          hs
    | States.D_W ->
        if not ward then
          err "blk %d: directory W outside any active WARD region" blk;
        if hs <> v.Protocol.bv_sharers then
          err "blk %d: directory W sharers [%s] but copies at [%s]" blk
            (show_cores v.Protocol.bv_sharers) (show_cores hs);
        List.iter
          (fun c ->
            match Hashtbl.find_opt t.priv.(c) blk with
            | Some { pstate = States.P_S; _ } ->
                err
                  "blk %d: W copy at core %d is S (W grants are \
                   exclusive-like)"
                  blk c
            | _ -> ())
          hs);
    if v.Protocol.bv_state <> States.D_W && v.Protocol.bv_wmulti then
      err "blk %d: w_multi flag survives outside the W state" blk;
    (* 2. SWMR among private copies — exempting W blocks and [`Self]
       protocols wholesale (multiple concurrent writers of disjoint
       sectors are the point of SI/SD). Dirty-S stays in force for
       everyone: an S copy always postdates a flush. *)
    if not (ward || self) then begin
      let exclusive =
        List.filter
          (fun c ->
            match (Hashtbl.find t.priv.(c) blk).pstate with
            | States.P_E | States.P_M -> true
            | States.P_S -> false)
          hs
      in
      match exclusive with
      | [] -> ()
      | [ c ] ->
          if List.length hs > 1 then
            err "blk %d: SWMR violated: exclusive at core %d but copies at [%s]"
              blk c (show_cores hs)
      | cs ->
          err "blk %d: SWMR violated: exclusive copies at [%s]" blk
            (show_cores cs)
    end;
    List.iter
      (fun c ->
        let line = Hashtbl.find t.priv.(c) blk in
        if line.pstate = States.P_S && Linedata.is_dirty line.data then
          err "blk %d: dirty S copy at core %d" blk c)
      hs;
    (* 3. data values against the sequential oracle. W blocks and [`Self]
       protocols share the relaxed regime: a copy must still read its own
       writes, and anything else it shows must be some historical value of
       that slot (no out-of-thin-air data). *)
    let relaxed = ward || self in
    let who = if ward then "W copy" else "SI/SD copy" in
    for slot = 0 to t.cfg.cores - 1 do
      let expect = oracle t ~blk ~slot in
      List.iter
        (fun c ->
          let line = Hashtbl.find t.priv.(c) blk in
          let got = Linedata.load line.data ~off:(slot_off slot) ~size:8 in
          if not relaxed then begin
            if not (Int64.equal got expect) then
              err
                "blk %d: stale data outside WARD: core %d sees %Ld in slot %d, \
                 oracle says %Ld"
                blk c got slot expect
          end
          else if c = slot then begin
            (* read-your-writes inside the region *)
            if not (Int64.equal got expect) then
              err
                "blk %d: %s at core %d lost its own write: slot %d has \
                 %Ld, oracle says %Ld"
                blk who c slot got expect
          end
          else if not (in_history t ~blk ~slot got) then
            err
              "blk %d: %s at core %d holds out-of-thin-air value %Ld in \
               slot %d"
              blk who c got slot)
        hs;
      if self then begin
        (* The LLC is the publication point. Whenever core [slot] holds no
           unflushed (dirty) copy of the block, everything it ever wrote
           there has been merged — the LLC slot must equal the oracle. A
           release fence makes that unconditional ([synced]): this is the
           observable that catches a dropped self-downgrade. *)
        let slot_dirty =
          match Hashtbl.find_opt t.priv.(slot) blk with
          | Some line -> Linedata.is_dirty line.data
          | None -> false
        in
        if (not slot_dirty) || t.synced.(slot) then begin
          let got = effective_slot t ~blk ~slot in
          if not (Int64.equal got expect) then
            err
              "blk %d: LLC lost core %d's write: slot reads %Ld, oracle \
               says %Ld"
              blk slot got expect
        end;
        if t.synced.(slot) && slot_dirty then
          err "blk %d: core %d still dirty after its release fence" blk slot
      end
      else if
        (* With no exclusive owner, the next miss is served from the LLC:
           outside WARD regions that must already be the oracle value. *)
        (not ward)
        && (v.Protocol.bv_state = States.D_I || v.Protocol.bv_state = States.D_S)
      then begin
        let got = effective_slot t ~blk ~slot in
        if not (Int64.equal got expect) then
          err
            "blk %d: memory lost a write: slot %d reads %Ld from the LLC, \
             oracle says %Ld"
            blk slot got expect
      end
    done
  done;
  (* 4. fence postconditions ([`Self] only): an acquire leaves the core
     holding nothing until its next access. *)
  if self then
    for c = 0 to t.cfg.cores - 1 do
      if t.fresh.(c) && Hashtbl.length t.priv.(c) > 0 then
        err "core %d holds lines despite a fresh acquire fence" c
    done;
  List.rev !errs

(* ---- canonical fingerprint ------------------------------------------------ *)

let dstate_code = function
  | States.D_I -> 0
  | States.D_S -> 1
  | States.D_E -> 2
  | States.D_M -> 3
  | States.D_W -> 4

let pstate_code = function States.P_S -> 1 | States.P_E -> 2 | States.P_M -> 3
let sharer_mask v = List.fold_left (fun m c -> m lor (1 lsl c)) 0 v
let fence_code t c =
  (if t.synced.(c) then 1 else 0) lor if t.fresh.(c) then 2 else 0

let block_flags t (v : Protocol.block_view) ~blk =
  (if v.Protocol.bv_wmulti then 1 else 0)
  lor if Protocol.is_ward t.proto ~blk then 2 else 0

let key t =
  let b = Buffer.create 512 in
  let add_i64 = Buffer.add_int64_le b in
  for blk = 0 to t.cfg.blks - 1 do
    let v = Protocol.observe t.proto ~blk in
    Buffer.add_uint8 b (dstate_code v.Protocol.bv_state);
    Buffer.add_uint8 b (v.Protocol.bv_owner + 1);
    Buffer.add_uint8 b (sharer_mask v.Protocol.bv_sharers);
    Buffer.add_uint8 b (block_flags t v ~blk);
    for core = 0 to t.cfg.cores - 1 do
      match Hashtbl.find_opt t.priv.(core) blk with
      | None -> Buffer.add_uint8 b 0
      | Some line ->
          Buffer.add_uint8 b (pstate_code line.pstate);
          add_i64 (Linedata.dirty_mask line.data);
          for slot = 0 to t.cfg.cores - 1 do
            add_i64 (Linedata.load line.data ~off:(slot_off slot) ~size:8)
          done
    done;
    (match Hashtbl.find_opt t.llc blk with
    | None -> Buffer.add_uint8 b 0
    | Some l ->
        Buffer.add_uint8 b 1;
        add_i64 (Linedata.dirty_mask l);
        for slot = 0 to t.cfg.cores - 1 do
          add_i64 (Linedata.load l ~off:(slot_off slot) ~size:8)
        done);
    for core = 0 to t.cfg.cores - 1 do
      Buffer.add_uint8 b (min 255 t.counts.(core).(blk))
    done
  done;
  Array.iter (fun a -> Buffer.add_uint8 b (min 255 a)) t.active;
  (* The fence monitor is part of the [`Self] state: two worlds that
     differ only in pending-publication status have different futures. *)
  if is_self t then
    for c = 0 to t.cfg.cores - 1 do
      Buffer.add_uint8 b (fence_code t c)
    done;
  Buffer.contents b

(* ---- core symmetry -------------------------------------------------------- *)

(* Renaming core [c] to [perm.(c)] maps a reachable state to another one
   with the same future whenever every core stays on its socket: a
   protocol sees a core's identity only through [Config.socket_of_core]
   (hop latencies, directory messages) and through the sharer and owner
   sets the renaming moves. Blocks and regions stay put — the region menu
   is asymmetric (region 1 covers block 0 only). *)
let symmetries t =
  let n = t.cfg.cores in
  let socket = Config.socket_of_core t.cfg.machine in
  let acc = ref [] and p = Array.make n 0 and used = Array.make n false in
  let rec go c =
    if c = n then acc := Array.copy p :: !acc
    else
      for d = 0 to n - 1 do
        if (not used.(d)) && socket d = socket c then begin
          used.(d) <- true;
          p.(c) <- d;
          go (c + 1);
          used.(d) <- false
        end
      done
  in
  go 0;
  List.rev !acc

(* Bytes per line record: the dirty mask, then one 8-byte slot per core. *)
let line_bytes n = 8 * (n + 1)

let stash s ~n i tag data =
  s.tag.(i) <- tag;
  let o = i * line_bytes n in
  Bytes.set_int64_le s.src o (Linedata.dirty_mask data);
  Bytes.blit (Linedata.bytes data) 0 s.src (o + 8) (8 * n)

(* Read the state into [t.scratch] once; returns the length of its key. *)
let extract t =
  let s = t.scratch and n = t.cfg.cores in
  let len = ref (Array.length t.active + if is_self t then n else 0) in
  for blk = 0 to t.cfg.blks - 1 do
    let v = Protocol.observe t.proto ~blk in
    let h = 4 * blk and base = blk * (n + 1) in
    s.hdr.(h) <- dstate_code v.Protocol.bv_state;
    s.hdr.(h + 1) <- v.Protocol.bv_owner;
    s.hdr.(h + 2) <- sharer_mask v.Protocol.bv_sharers;
    s.hdr.(h + 3) <- block_flags t v ~blk;
    (* header, one presence byte per line, one count per core *)
    len := !len + 4 + (n + 1) + n;
    for c = 0 to n - 1 do
      match Hashtbl.find_opt t.priv.(c) blk with
      | None -> s.tag.(base + c) <- 0
      | Some line ->
          stash s ~n (base + c) (pstate_code line.pstate) line.data;
          len := !len + line_bytes n
    done;
    match Hashtbl.find_opt t.llc blk with
    | None -> s.tag.(base + n) <- 0
    | Some l ->
        stash s ~n (base + n) 1 l;
        len := !len + line_bytes n
  done;
  !len

(* Does the slot at [o] hold [encode c b k] for a model core [c]? Only
   those values carry a core to rename; zero and anything else stay. *)
let renamable src o n =
  let c = Bytes.get_uint8 src (o + 3) in
  c >= 1 && c <= n
  && Bytes.get_uint16_le src o <> 0
  && Bytes.get_uint16_le src (o + 4) = 0
  && Bytes.get_uint16_le src (o + 6) = 0

(* One line record under the renaming: byte group [j] of the dirty mask
   and slot [j] come from the old slot [inv.(j)], and each value's core
   field is renamed. Bytes past the model's slots stay in place. *)
let write_line s ~n ~inv ~fwd o dst p =
  for j = 0 to 7 do
    Bytes.set dst (p + j) (Bytes.get s.src (o + if j < n then inv.(j) else j))
  done;
  for j = 0 to n - 1 do
    let so = o + 8 + (8 * inv.(j)) and d = p + 8 + (8 * j) in
    Bytes.blit s.src so dst d 8;
    if renamable s.src so n then
      Bytes.set_uint8 dst (d + 3)
        (fwd.(Bytes.get_uint8 s.src (so + 3) - 1) + 1)
  done

(* Write the extracted state, renamed by [fwd] (old core -> new, with
   [inv] its inverse), into [dst] at [p] in {!key}'s layout; returns the
   end position. *)
let write t ~inv ~fwd dst p =
  let s = t.scratch and n = t.cfg.cores in
  let p = ref p in
  for blk = 0 to t.cfg.blks - 1 do
    let h = 4 * blk and base = blk * (n + 1) in
    let owner = s.hdr.(h + 1) and sharers = s.hdr.(h + 2) in
    let m = ref (sharers land lnot ((1 lsl n) - 1)) in
    for c = 0 to n - 1 do
      if sharers land (1 lsl c) <> 0 then m := !m lor (1 lsl fwd.(c))
    done;
    Bytes.set_uint8 dst !p s.hdr.(h);
    Bytes.set_uint8 dst (!p + 1)
      (if owner >= 0 && owner < n then fwd.(owner) + 1 else owner + 1);
    Bytes.set_uint8 dst (!p + 2) !m;
    Bytes.set_uint8 dst (!p + 3) s.hdr.(h + 3);
    p := !p + 4;
    for c = 0 to n do
      let i = base + if c < n then inv.(c) else n in
      Bytes.set_uint8 dst !p s.tag.(i);
      incr p;
      if s.tag.(i) <> 0 then begin
        write_line s ~n ~inv ~fwd (i * line_bytes n) dst !p;
        p := !p + line_bytes n
      end
    done;
    for c = 0 to n - 1 do
      Bytes.set_uint8 dst !p (min 255 t.counts.(inv.(c)).(blk));
      incr p
    done
  done;
  for r = 0 to Array.length t.active - 1 do
    Bytes.set_uint8 dst !p (min 255 t.active.(r));
    incr p
  done;
  if is_self t then
    for c = 0 to n - 1 do
      Bytes.set_uint8 dst !p (fence_code t inv.(c));
      incr p
    done;
  !p

let key_under t perm =
  let n = t.cfg.cores in
  let inv = Array.make n (-1) in
  if Array.length perm <> n then invalid_arg "World.key_under: wrong size";
  Array.iteri
    (fun c d ->
      if d < 0 || d >= n || inv.(d) >= 0 then
        invalid_arg "World.key_under: not a permutation";
      inv.(d) <- c)
    perm;
  let dst = Bytes.create (extract t) in
  ignore (write t ~inv ~fwd:perm dst 0 : int);
  Bytes.unsafe_to_string dst

let mix h x = (h * 1_000_003) lxor x

(* Core [own]'s slot at [o] as its signature sees it: a renamable value by
   its store index, block and whether it is [own]'s — none of which a
   renaming changes — and any other value as it is. *)
let slot_sig src o ~own n =
  let u16 i = Bytes.get_uint16_le src (o + i) in
  if renamable src o n then
    (if Bytes.get_uint8 src (o + 3) = own + 1 then 1 else 2)
    lor (u16 0 lsl 2)
    lor (Bytes.get_uint8 src (o + 2) lsl 18)
  else mix (mix (u16 0) (u16 2)) (mix (u16 4) (u16 6))

(* A core's signature: what {!symmetries} cannot change about it — its
   line states, own-slot dirty bytes and values, store counts, and fence
   flags. Renaming moves the signature along with the core. *)
let core_sig t c =
  let s = t.scratch and n = t.cfg.cores in
  let h = ref (if is_self t then fence_code t c else 0) in
  for blk = 0 to t.cfg.blks - 1 do
    let i = (blk * (n + 1)) + c in
    h := mix (mix !h s.tag.(i)) t.counts.(c).(blk);
    if s.tag.(i) <> 0 then begin
      let o = i * line_bytes n in
      h := mix !h (Bytes.get_uint8 s.src (o + c));
      h := mix !h (slot_sig s.src (o + 8 + (8 * c)) ~own:c n)
    end
  done;
  !h

let rec write_all ws ~inv ~fwd dst p =
  match ws with
  | [] -> p
  | t :: rest -> write_all rest ~inv ~fwd dst (write t ~inv ~fwd dst p)

let rec compare_from a b i len =
  if i = len then 0
  else
    let c = Char.compare (Bytes.get a i) (Bytes.get b i) in
    if c <> 0 then c else compare_from a b (i + 1) len

(* The least concatenated key over the renamings that sort each socket's
   cores by signature. Which renamings those are depends only on the
   renamed state, so every state of an orbit yields the same key; among
   cores whose signatures tie, every order is tried. *)
let canonical_key ws =
  let t0 =
    match ws with t :: _ -> t | [] -> invalid_arg "World.canonical_key"
  in
  let s = t0.scratch and n = t0.cfg.cores in
  let socket = Config.socket_of_core t0.cfg.machine in
  let len = List.fold_left (fun acc t -> acc + extract t) 0 ws in
  for c = 0 to n - 1 do
    s.sg.(c) <- List.fold_left (fun h t -> mix h (core_sig t c)) 0 ws
  done;
  let before a b =
    socket a < socket b || (socket a = socket b && s.sg.(a) < s.sg.(b))
  in
  (* Stable insertion sort of the cores by (socket, signature). Sockets
     are contiguous core ranges, so [ord.(j)] is a core of position [j]'s
     own socket: new core [j] is old core [ord.(j)]. *)
  for i = 0 to n - 1 do
    let j = ref i in
    while !j > 0 && before i s.ord.(!j - 1) do
      s.ord.(!j) <- s.ord.(!j - 1);
      decr j
    done;
    s.ord.(!j) <- i
  done;
  for i = n - 1 downto 0 do
    s.run_end.(i) <-
      (if i + 1 < n && not (before s.ord.(i) s.ord.(i + 1)) then
         s.run_end.(i + 1)
       else i + 1)
  done;
  if Bytes.length s.best < len then begin
    s.best <- Bytes.create len;
    s.cand <- Bytes.create len
  end;
  let first = ref true in
  let swap i j =
    let x = s.ord.(i) in
    s.ord.(i) <- s.ord.(j);
    s.ord.(j) <- x
  in
  let rec go i =
    if i = n then begin
      for j = 0 to n - 1 do
        s.fwd.(s.ord.(j)) <- j
      done;
      let dst = if !first then s.best else s.cand in
      ignore (write_all ws ~inv:s.ord ~fwd:s.fwd dst 0 : int);
      if !first then first := false
      else if compare_from s.cand s.best 0 len < 0 then begin
        s.cand <- s.best;
        s.best <- dst
      end
    end
    else
      for j = i to s.run_end.(i) - 1 do
        swap i j;
        go (i + 1);
        swap i j
      done
  in
  go 0;
  Bytes.sub_string s.best 0 len

(* ---- equivalence ---------------------------------------------------------- *)

let compare_states a b =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let blks = min a.cfg.blks b.cfg.blks in
  let cores = min a.cfg.cores b.cfg.cores in
  for blk = 0 to blks - 1 do
    let va = Protocol.observe a.proto ~blk
    and vb = Protocol.observe b.proto ~blk in
    if va <> vb then
      err "blk %d: directory views diverge: %s [%s] vs %s [%s]" blk
        (Format.asprintf "%a" Protocol.pp_block_view va)
        (Protocol.name a.proto)
        (Format.asprintf "%a" Protocol.pp_block_view vb)
        (Protocol.name b.proto);
    if Protocol.is_ward a.proto ~blk <> Protocol.is_ward b.proto ~blk then
      err "blk %d: wardness diverges on a checked block" blk;
    for core = 0 to cores - 1 do
      match
        (Hashtbl.find_opt a.priv.(core) blk, Hashtbl.find_opt b.priv.(core) blk)
      with
      | None, None -> ()
      | Some _, None | None, Some _ ->
          err "blk %d: core %d holds a copy under %s only" blk core
            (Protocol.name
               (if Hashtbl.mem a.priv.(core) blk then a.proto else b.proto))
      | Some la, Some lb ->
          if la.pstate <> lb.pstate then
            err "blk %d: core %d state diverges: %s vs %s" blk core
              (pstate_name la.pstate) (pstate_name lb.pstate);
          if not (Bytes.equal (Linedata.bytes la.data) (Linedata.bytes lb.data))
          then err "blk %d: core %d data diverges" blk core;
          if
            not
              (Int64.equal (Linedata.dirty_mask la.data)
                 (Linedata.dirty_mask lb.data))
          then err "blk %d: core %d dirty mask diverges" blk core
    done
  done;
  List.rev !errs

(* Data-only equivalence, for protocols that must agree on memory contents
   but are architecturally free to differ in grant states and costs:
   snooping MSI grants S where directory MESI grants E (both clean, both
   silently upgradeable on this world's store path), and its directory
   view is a reconstruction. Compared: residency, the M-vs-clean state
   class, line bytes, dirty masks, and the effective memory image. *)
let compare_data a b =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let blks = min a.cfg.blks b.cfg.blks in
  let cores = min a.cfg.cores b.cfg.cores in
  let cls = function
    | States.P_M -> "M"
    | States.P_E | States.P_S -> "clean"
  in
  for blk = 0 to blks - 1 do
    for core = 0 to cores - 1 do
      match
        (Hashtbl.find_opt a.priv.(core) blk, Hashtbl.find_opt b.priv.(core) blk)
      with
      | None, None -> ()
      | Some _, None | None, Some _ ->
          err "blk %d: core %d holds a copy under %s only" blk core
            (Protocol.name
               (if Hashtbl.mem a.priv.(core) blk then a.proto else b.proto))
      | Some la, Some lb ->
          if cls la.pstate <> cls lb.pstate then
            err "blk %d: core %d state class diverges: %s vs %s" blk core
              (pstate_name la.pstate) (pstate_name lb.pstate);
          if not (Bytes.equal (Linedata.bytes la.data) (Linedata.bytes lb.data))
          then err "blk %d: core %d data diverges" blk core;
          if
            not
              (Int64.equal (Linedata.dirty_mask la.data)
                 (Linedata.dirty_mask lb.data))
          then err "blk %d: core %d dirty mask diverges" blk core
    done;
    for slot = 0 to cores - 1 do
      let va = effective_slot a ~blk ~slot
      and vb = effective_slot b ~blk ~slot in
      if not (Int64.equal va vb) then
        err "blk %d: effective memory diverges in slot %d: %Ld vs %Ld" blk
          slot va vb
    done
  done;
  List.rev !errs

(* ---- pretty printing ------------------------------------------------------ *)

let dump t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Protocol.dump t.proto);
  let slots line =
    String.concat ","
      (List.init t.cfg.cores (fun s ->
           Printf.sprintf "%Lx" (Linedata.load line ~off:(slot_off s) ~size:8)))
  in
  for core = 0 to t.cfg.cores - 1 do
    Buffer.add_string b (Printf.sprintf "  core %d:" core);
    let entries = ref [] in
    Hashtbl.iter
      (fun blk line -> entries := (blk, line) :: !entries)
      t.priv.(core);
    if !entries = [] then Buffer.add_string b " (empty)";
    List.iter
      (fun (blk, line) ->
        Buffer.add_string b
          (Printf.sprintf " b%d:%s[%s]%s" blk (pstate_name line.pstate)
             (slots line.data)
             (if Linedata.is_dirty line.data then "*" else "")))
      (List.sort compare !entries);
    Buffer.add_char b '\n'
  done;
  Buffer.add_string b "  llc:";
  let lines = ref [] in
  Hashtbl.iter (fun blk l -> lines := (blk, l) :: !lines) t.llc;
  if !lines = [] then Buffer.add_string b " (empty)";
  List.iter
    (fun (blk, l) ->
      Buffer.add_string b
        (Printf.sprintf " b%d:[%s]%s" blk (slots l)
           (if Linedata.is_dirty l then "*" else "")))
    (List.sort compare !lines);
  Buffer.add_char b '\n';
  Buffer.add_string b "  oracle:";
  for blk = 0 to t.cfg.blks - 1 do
    Buffer.add_string b
      (Printf.sprintf " b%d:[%s]" blk
         (String.concat ","
            (List.init t.cfg.cores (fun s ->
                 Printf.sprintf "%Lx" (oracle t ~blk ~slot:s)))))
  done;
  Buffer.add_char b '\n';
  Buffer.contents b
