(** The model checker's small world: a concrete memory system of [cores]
    unbounded private caches and one shared LLC (the terminal storage,
    zero-filled on first touch), driving one packed
    {!Warden_proto.Protocol.t} exactly the way the simulator's memory
    system does (fill on miss, upgrade on an S-held store, silent E→M,
    evict callbacks, region instructions).

    Stores are given deterministic, interleaving-independent values:
    core [c]'s [k]-th store to block [b] always writes [encode c b k] into
    the core's private 8-byte slot of the block (slot [c] at byte offset
    [8c]). Slots make every write single-writer at byte granularity — the
    discipline WARD requires of software — so a sequential oracle (the
    per-slot store counts) pins the expected value of every byte of the
    world at every step, for both protocols, through reconciliation merges.

    {!check} audits, after every operation:
    - directory/private-cache agreement ({!Warden_proto.Protocol.S.observe}
      vs the actual copies), including sharer sets, owner, and the
      [w_multi] flag's scope;
    - SWMR among private copies, exempting blocks inside an active WARD
      region (the documented W-block exemption), and S-copy cleanliness;
    - the data-value invariant: outside WARD regions every private copy
      and (for I/S blocks) the effective memory must equal the oracle;
      inside a WARD region a core must still read its own writes, and any
      other slot it observes must be {e some} historical oracle value
      (no out-of-thin-air data);
    - that a retired region leaves no W state behind (region add/remove
      round-trips restore a reconciled, MESI-consistent state).

    Protocols whose {!Warden_proto.Protocol.S.kind} is [`Self] (SI/SD) are
    driven with the fence operations {!Op.Acquire}/{!Op.Release} appended
    to the alphabet and an acquire/release-aware oracle in place of the
    directory-agreement and SWMR invariants: every copy still reads its
    own writes and shows only historical values of other slots, the LLC
    slot of any core without an unflushed copy equals the oracle, a
    release fence leaves the core clean and fully published, and an
    acquire fence leaves it holding nothing. *)

open Warden_machine
open Warden_proto

type cfg = {
  cores : int;  (** 1..8 (each core owns one 8-byte slot of a 64 B block) *)
  blks : int;  (** blocks 0..blks-1 are loaded/stored and checked *)
  regions : int;  (** size of the predefined region menu (see {!Op}) *)
  store_cap : int;
      (** max stores per (core, block); bounds the canonical state space.
          [<= 0] means unlimited (fuzzing). *)
  region_cap : int;  (** max simultaneous activations per region index *)
  region_base : int;
      (** block offset of the region menu. [0] puts regions over the
          checked blocks; the equivalence mode sets [blks] so that region
          instructions execute but never cover an accessed block. *)
  machine : Config.t;
  mk : Fabric.t -> Protocol.t;  (** the protocol under test *)
}

type t

type result = { latency : int; value : int64 option; accepted : bool }
(** Outcome of one operation: the grant/reconcile latency, the 64-bit
    value a load observed (or a store wrote), and whether a region add
    was accepted by the CAM. *)

val create : cfg -> t
val cfg : t -> cfg
val proto : t -> Protocol.t
val steps : t -> int

val copy : t -> t
(** Fork the whole memory system — caches, LLC, oracle counts, region
    activations, fence flags, and the protocol state (via
    {!Warden_proto.Protocol.copy}, rebound to the fork's fabric). The
    explorer forks a world per successor instead of replaying operation
    prefixes. The fork's fabric shares its parent's write-only accounting
    sinks ([stats] and [obs], both built once by {!create}) and op
    alphabet; everything a transition reads is independent. *)

val encode : core:int -> blk:int -> int -> int64
(** [encode ~core ~blk k] is the value of core [core]'s [k]-th store to
    block [blk] ([k >= 1]); [0L] is the initial memory value. *)

val enabled : t -> Op.t list
(** The operations worth exploring from the current state: loads that
    miss, stores under the cap, evictions of held lines, region ops within
    their activation bounds. (Pure cache hits and no-op evictions are
    excluded — they cannot change the canonical state.) *)

val apply : t -> Op.t -> result
(** Execute one operation against the protocol, updating the world. *)

val check : t -> string list
(** Audit every invariant; [[]] means the state is clean. *)

val key : t -> string
(** Canonical fingerprint of the complete state (directory views,
    wardness, private copies with data and dirty masks, effective memory,
    store counts, live regions) for BFS memoization. Two states with equal
    keys are indistinguishable to any future operation sequence. *)

val symmetries : t -> int array list
(** The core renamings the model is symmetric under: every permutation
    [perm] of the model's cores (core [c] becomes [perm.(c)]) that keeps
    each core on its {!Warden_machine.Config.socket_of_core} socket —
    all [cores!] on one socket, two on the mesh machine where core 2 sits
    alone. Identity first. *)

val key_under : t -> int array -> string
(** [key_under t perm] is {!key} of the state [t] renamed by [perm]: each
    core's private copies, store counts and fence flags, its slot in every
    line (with that slot's byte group of each dirty mask), the directory
    owner and sharers, and the core of each stored value ([encode c b k]
    becomes [encode perm.(c) b k]) move with it; blocks and regions stay.
    [key_under t identity = key t]. *)

val canonical_key : t list -> string
(** The least [key_under w perm] concatenated over the worlds [ws], over
    the [perm] in {!symmetries}, all worlds renamed together (a lockstep
    pair must be renamed jointly). Two states have equal canonical keys
    exactly when one is a renaming of the other. Each state is read once;
    only renamings that sort each socket's cores by a renaming-invariant
    signature are tried, so the cost stays near {!key}'s. A root world
    and its forks share the working storage of this and {!key_under}, so
    call them on one domain at a time per family. *)

val compare_states : t -> t -> string list
(** Differences between two worlds that equivalent protocols must not
    show: per-block directory views, holder sets, private-copy states,
    data, dirty masks, and wardness. Used by the MESI≡WARDen lockstep
    mode on region-free block ranges. *)

val compare_data : t -> t -> string list
(** Data-only divergence between two worlds: residency, the M-vs-clean
    state class, line bytes, dirty masks, and the effective memory image —
    but not exact grant states, directory views, or costs. Used by the
    snooping-MSI ≡ directory-MESI lockstep mode, where MSI grants S on
    paths MESI grants E and both are architecturally correct. *)

val dump : t -> string
(** Pretty-print the full state: protocol dump (directory + region CAM),
    per-core cache contents, LLC lines, effective memory, and the
    oracle's expected values. *)
