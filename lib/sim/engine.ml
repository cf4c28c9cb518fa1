open Warden_util
open Warden_mem
open Warden_machine
module Obs = Warden_obs.Obs
module Oev = Warden_obs.Events

type _ Effect.t +=
  | E_load : (Addr.t * int) -> int64 Effect.t
  | E_store : (Addr.t * int * int64) -> unit Effect.t
  | E_rmw : (Addr.t * int * (int64 -> int64)) -> int64 Effect.t
  | E_tick : int -> unit Effect.t
  | E_stall : int -> unit Effect.t
  | E_now : int Effect.t
  | E_tid : int Effect.t
  | E_region_add : (int * int) -> bool Effect.t
  | E_region_remove : (int * int) -> unit Effect.t
  | E_acquire : unit Effect.t
  | E_release : unit Effect.t
  | E_yield : unit Effect.t

type tstate = {
  tid : int;
  mutable time : int;
  mutable qlimit : int; (* inline fast path allowed while time < qlimit *)
  (* Store buffer: a ring of completion times, oldest first. Fixed size
     (capacity entries + 1), so the per-store path allocates nothing. *)
  sb : int array;
  mutable sb_head : int;
  mutable sb_len : int;
}

(* One run queue, ordered by (cycle, FIFO enqueue order), drained on the
   domain that called [run]: every simulation runs on exactly one domain
   (DESIGN.md §11). *)
type t = {
  ms : Memsys.t;
  cfg : Config.t;
  obs : Obs.t; (* cached from [Memsys.obs] *)
  obs_on : bool;
  obs_full : bool;
  stats : Sstats.t; (* cached [Memsys.sstats] *)
  quantum : int; (* inline quantum, Config.sched_quantum *)
  sync_on : bool;
      (* the protocol is [`Self]: runtime acquire/release fences must
         reach the memory system. When false, [Ops.acquire]/[Ops.release]
         are literal no-ops — no effect performed, no event enqueued — so
         eagerly-coherent protocols keep their exact schedules. *)
  runq : (unit -> unit) Pqueue.t;
  threads : tstate array;
  mutable cur_st : tstate; (* thread currently executing, for Ops *)
  mutable used_threads : int;
}

(* The engine currently executing on this domain, so that [Ops] can reach
   simulator state without performing an effect. One engine runs at a time
   per domain; [run] saves and restores the slot, and domain-local storage
   keeps engines on parallel harness workers independent. *)
let cur_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let create cfg ~proto =
  let sb_cap = cfg.Config.store_buffer_entries + 1 in
  let threads =
    Array.init (Config.num_threads cfg) (fun tid ->
        { tid; time = 0; qlimit = 0; sb = Array.make sb_cap 0; sb_head = 0; sb_len = 0 })
  in
  let cur0 =
    if Array.length threads > 0 then threads.(0)
    else { tid = -1; time = 0; qlimit = 0; sb = [||]; sb_head = 0; sb_len = 0 }
  in
  let ms = Memsys.create cfg ~proto in
  let obs = Memsys.obs ms in
  {
    ms;
    cfg;
    obs;
    obs_on = Obs.enabled obs;
    obs_full = Obs.full obs;
    stats = Memsys.sstats ms;
    quantum = cfg.Config.sched_quantum;
    runq = Pqueue.create ();
    sync_on = Warden_proto.Protocol.kind (Memsys.protocol ms) = `Self;
    threads;
    cur_st = cur0;
    used_threads = 0;
  }

let memsys t = t.ms
let config t = t.cfg

let retire t (st : tstate) n =
  let s = t.stats in
  s.Sstats.instructions <- s.Sstats.instructions + n;
  s.Sstats.per_thread_instructions.(st.tid) <-
    s.Sstats.per_thread_instructions.(st.tid) + n

let sb_pop st =
  let v = Array.unsafe_get st.sb st.sb_head in
  let h = st.sb_head + 1 in
  st.sb_head <- (if h >= Array.length st.sb then 0 else h);
  st.sb_len <- st.sb_len - 1;
  v

let sb_push st v =
  let cap = Array.length st.sb in
  let i = st.sb_head + st.sb_len in
  Array.unsafe_set st.sb (if i >= cap then i - cap else i) v;
  st.sb_len <- st.sb_len + 1

let drain_ready st =
  while st.sb_len > 0 && Array.unsafe_get st.sb st.sb_head <= st.time do
    ignore (sb_pop st)
  done

(* A TSO fence: wait for every buffered store to complete. *)
let drain_all st =
  while st.sb_len > 0 do
    st.time <- max st.time (sb_pop st)
  done

(* Store-buffer bookkeeping shared by the scheduled and inline store
   paths: free ready slots, stall on a full buffer, enqueue the new
   store's completion, retire in one cycle. *)
let commit_store t st lat =
  drain_ready st;
  if st.sb_len >= t.cfg.Config.store_buffer_entries then begin
    t.stats.Sstats.sb_stalls <- t.stats.Sstats.sb_stalls + 1;
    let ready = sb_pop st in
    if t.obs_on then begin
      (* Explicit [set_now]: the inline fast path reaches here without
         passing through a scheduled closure. No block is at fault for a
         full buffer, so the record carries none. *)
      Obs.set_now t.obs st.time;
      Obs.event t.obs ~code:Oev.sb_stall
        ~core:(Config.core_of_thread t.cfg st.tid)
        ~blk:(-1)
        ~arg:(max 0 (ready - st.time))
    end;
    st.time <- max st.time ready
  end;
  sb_push st (st.time + lat);
  st.time <- st.time + 1;
  retire t st 1

(* Every closure entering a run queue re-establishes the ambient thread
   and opens a fresh inline quantum; with [sched_quantum = 0] the budget
   is empty and every access goes through the queue (legacy behavior). *)
let resume t (st : tstate) =
  t.cur_st <- st;
  st.qlimit <- st.time + t.quantum;
  (* The recorder timestamps ring records with the resumed event's issue
     time; only full mode rings, so off/counters skip the store. *)
  if t.obs_full then Obs.set_now t.obs st.time

let enqueue t (st : tstate) fn = Pqueue.add t.runq ~prio:st.time fn

(* An access may run inline — without suspending into the run queue — iff
   it is provably the event the scheduled path would pop next: the
   thread's clock must be strictly below every queued priority (a tie
   loses, since the queued entry was inserted earlier and FIFO order puts
   it first). The quantum bounds how long one thread may monopolize the
   host before taking the queue path anyway. Under this gate the fast
   path replays exactly the legacy pop order, so simulated cycles, stats
   and memory images are bit-identical for every quantum value. *)
let can_inline t (st : tstate) =
  st.time < st.qlimit && st.time < Pqueue.min_prio_or t.runq ~default:max_int

let handler t st =
  let open Effect.Deep in
  {
    retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | E_tick n ->
            Some
              (fun (k : (a, unit) continuation) ->
                st.time <- st.time + n;
                retire t st n;
                continue k ())
        | E_stall n ->
            Some
              (fun k ->
                st.time <- st.time + n;
                continue k ())
        | E_now -> Some (fun k -> continue k st.time)
        | E_tid -> Some (fun k -> continue k st.tid)
        | E_yield ->
            Some
              (fun k ->
                enqueue t st (fun () ->
                    resume t st;
                    continue k ()))
        | E_load (addr, size) ->
            Some
              (fun k ->
                enqueue t st (fun () ->
                    resume t st;
                    let v, lat = Memsys.load t.ms ~thread:st.tid addr ~size in
                    st.time <- st.time + lat;
                    retire t st 1;
                    continue k v))
        | E_store (addr, size, v) ->
            Some
              (fun k ->
                enqueue t st (fun () ->
                    resume t st;
                    let lat = Memsys.store t.ms ~thread:st.tid addr ~size v in
                    commit_store t st lat;
                    continue k ()))
        | E_rmw (addr, size, f) ->
            Some
              (fun k ->
                enqueue t st (fun () ->
                    resume t st;
                    drain_all st;
                    let old, lat =
                      Memsys.rmw t.ms ~thread:st.tid addr ~size f
                    in
                    st.time <- st.time + lat + 2;
                    retire t st 1;
                    continue k old))
        | E_region_add (lo, hi) ->
            Some
              (fun k ->
                enqueue t st (fun () ->
                    resume t st;
                    st.time <- st.time + 1;
                    retire t st 1;
                    continue k (Memsys.region_add t.ms ~thread:st.tid ~lo ~hi)))
        | E_region_remove (lo, hi) ->
            Some
              (fun k ->
                enqueue t st (fun () ->
                    resume t st;
                    let lat = Memsys.region_remove t.ms ~thread:st.tid ~lo ~hi in
                    st.time <- st.time + 1 + lat;
                    retire t st 1;
                    continue k ()))
        | E_acquire ->
            Some
              (fun k ->
                enqueue t st (fun () ->
                    resume t st;
                    drain_all st;
                    let lat = Memsys.acquire t.ms ~thread:st.tid in
                    st.time <- st.time + 1 + lat;
                    retire t st 1;
                    continue k ()))
        | E_release ->
            Some
              (fun k ->
                enqueue t st (fun () ->
                    resume t st;
                    (* A release is a fence: buffered stores complete
                       before the self-downgrade publishes them. *)
                    drain_all st;
                    let lat = Memsys.release t.ms ~thread:st.tid in
                    st.time <- st.time + 1 + lat;
                    retire t st 1;
                    continue k ()))
        | _ -> None)
  }

(* [run] may be called repeatedly on one engine: each call is a phase, and
   thread clocks and the stat records carry over, so
   phase N+1 continues the simulated timeline where phase N stopped. The
   boundary between phases is the engine's only quiescent point — queues
   empty, store buffers drained, no live continuation — which is exactly
   where {!snapshot}/{!restore} are legal. *)
let run t bodies =
  let n = Array.length bodies in
  if n > Array.length t.threads then invalid_arg "Engine.run: too many threads";
  t.used_threads <- max t.used_threads n;
  let cycles_at_start = t.stats.Sstats.cycles in
  Array.iteri
    (fun tid body ->
      let st = t.threads.(tid) in
      enqueue t st (fun () ->
          resume t st;
          Effect.Deep.match_with body () (handler t st)))
    bodies;
  let prev = Domain.DLS.get cur_key in
  Domain.DLS.set cur_key (Some t);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set cur_key prev)
    (fun () ->
      while not (Pqueue.is_empty t.runq) do
        (Pqueue.pop_exn t.runq) ()
      done);
  if t.obs_full then Obs.fold t.obs;
  let makespan = ref 0 in
  for tid = 0 to n - 1 do
    drain_all t.threads.(tid);
    makespan := max !makespan t.threads.(tid).time
  done;
  t.stats.Sstats.cycles <- max cycles_at_start !makespan;
  let cores_used =
    min (Config.num_cores t.cfg)
      ((n + t.cfg.Config.threads_per_core - 1) / t.cfg.Config.threads_per_core)
  in
  (* Count only this phase's cycle delta, at this phase's core count: a
     single-phase run starts at cycle 0 and pays the full makespan. *)
  t.stats.Sstats.core_cycles <-
    t.stats.Sstats.core_cycles
    + (cores_used * max 0 (!makespan - cycles_at_start));
  !makespan

(* --- snapshot/restore (DESIGN.md §15) ------------------------------------ *)

(* Engine-level scheduler state that survives across phases. Effects-based
   continuations cannot serialize, so snapshots are only legal between
   [run]s — which is also the only time there is nothing unserializable
   alive: the queue empty and store buffers drained. *)
let snapshot t w =
  if not (Pqueue.is_empty t.runq) then
    invalid_arg "Engine.snapshot: run in progress";
  Bin.w_int w (Array.length t.threads);
  Array.iter
    (fun st ->
      assert (st.sb_len = 0);
      Bin.w_int w st.time;
      Bin.w_int w st.qlimit)
    t.threads;
  Bin.w_int w t.used_threads;
  Memsys.save_state t.ms w

let restore t r =
  let n = Bin.r_int r in
  if n <> Array.length t.threads then
    Bin.corrupt "Engine: thread count mismatch";
  Array.iter
    (fun st ->
      st.time <- Bin.r_int r;
      st.qlimit <- Bin.r_int r;
      st.sb_head <- 0;
      st.sb_len <- 0)
    t.threads;
  t.used_threads <- Bin.r_int r;
  Memsys.restore_state t.ms r

module Ops = struct
  (* Each operation first tries to run inline on the ambient engine —
     no effect performed, no continuation captured — and falls back to
     the effect (and thus the run queue) when the access needs a
     coherence transition, loses the [can_inline] gate, or no engine is
     running on this domain (preserving [Effect.Unhandled] semantics). *)

  let load addr ~size =
    match Domain.DLS.get cur_key with
    | Some t when can_inline t t.cur_st -> (
        let st = t.cur_st in
        let lat = Memsys.try_fast_load t.ms ~thread:st.tid addr ~size in
        if lat >= 0 then begin
          st.time <- st.time + lat;
          retire t st 1;
          Memsys.fast_value t.ms
        end
        else Effect.perform (E_load (addr, size)))
    | _ -> Effect.perform (E_load (addr, size))

  let store addr ~size v =
    match Domain.DLS.get cur_key with
    | Some t when can_inline t t.cur_st -> (
        let st = t.cur_st in
        let lat = Memsys.try_fast_store t.ms ~thread:st.tid addr ~size v in
        if lat >= 0 then commit_store t st lat
        else Effect.perform (E_store (addr, size, v)))
    | _ -> Effect.perform (E_store (addr, size, v))

  let rmw addr ~size f =
    match Domain.DLS.get cur_key with
    | Some t when can_inline t t.cur_st -> (
        let st = t.cur_st in
        (* [f] must be pure (all call sites are arithmetic on the old
           value), so committing the RMW before the fence drain below is
           indistinguishable from the scheduled path's order. *)
        let lat = Memsys.try_fast_rmw t.ms ~thread:st.tid addr ~size f in
        if lat >= 0 then begin
          drain_all st;
          st.time <- st.time + lat + 2;
          retire t st 1;
          Memsys.fast_value t.ms
        end
        else Effect.perform (E_rmw (addr, size, f)))
    | _ -> Effect.perform (E_rmw (addr, size, f))

  let cas addr ~size ~expected ~desired =
    let old = rmw addr ~size (fun v -> if v = expected then desired else v) in
    old = expected

  let fetch_add addr ~size delta = rmw addr ~size (Int64.add delta)

  let tick n =
    match Domain.DLS.get cur_key with
    | Some t ->
        let st = t.cur_st in
        st.time <- st.time + n;
        retire t st n
    | None -> Effect.perform (E_tick n)

  let stall n =
    match Domain.DLS.get cur_key with
    | Some t -> t.cur_st.time <- t.cur_st.time + n
    | None -> Effect.perform (E_stall n)

  let now () =
    match Domain.DLS.get cur_key with
    | Some t -> t.cur_st.time
    | None -> Effect.perform E_now

  let tid () =
    match Domain.DLS.get cur_key with
    | Some t -> t.cur_st.tid
    | None -> Effect.perform E_tid

  let region_add ~lo ~hi = Effect.perform (E_region_add (lo, hi))
  let region_remove ~lo ~hi = Effect.perform (E_region_remove (lo, hi))

  (* Runtime sync-point fences. On eagerly-coherent protocols these are
     literal no-ops — no effect, no enqueue, no time — so the runtime can
     annotate its fork/join edges unconditionally without perturbing the
     MESI/WARDen schedules at all. *)
  let acquire () =
    match Domain.DLS.get cur_key with
    | Some t when not t.sync_on -> ()
    | _ -> Effect.perform E_acquire

  let release () =
    match Domain.DLS.get cur_key with
    | Some t when not t.sync_on -> ()
    | _ -> Effect.perform E_release

  let yield () = Effect.perform E_yield
end
