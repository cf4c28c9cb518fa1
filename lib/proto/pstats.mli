(** Mutable counters maintained by the coherence protocols.

    The evaluation figures are all computed from differences of these
    counters between a MESI run and a WARDen run of the same program;
    energy is priced from them too ([Warden_sim.Memsys.energy]). *)

type t = {
  mutable dir_accesses : int;
  mutable invalidations : int;
      (** Private cache copies invalidated by coherence actions, counted per
          cache level holding the line (the paper counts "per cache"). *)
  mutable downgrades : int;
      (** Private cache copies downgraded M/E→S by Fwd-GetS, counted per
          cache level. *)
  mutable fwds : int;  (** Fwd-GetS/GetM transactions sent to an owner. *)
  mutable msgs_ctl_intra : int;
  mutable msgs_ctl_inter : int;
  mutable msgs_data_intra : int;
  mutable msgs_data_inter : int;
  mutable writebacks : int;  (** Dirty private lines written to the LLC. *)
  mutable l3_hits : int;
  mutable l3_misses : int;
  mutable dram_reads : int;
  mutable zero_fills : int;
      (** LLC misses satisfied by zero-filling never-written memory. *)
  mutable ward_grants : int;  (** Requests satisfied in the W state. *)
  mutable ward_adds : int;
  mutable ward_removes : int;
  mutable ward_rejects : int;  (** Region adds refused by a full CAM. *)
  mutable cam_lookups : int;  (** WARD range-CAM lookups, one per request. *)
  mutable recon_blocks : int;  (** Blocks processed by reconciliation. *)
  mutable recon_flushes : int;  (** Private copies flushed by reconciliation. *)
  mutable bus_txns : int;  (** Shared-bus transactions (snooping fabrics). *)
  mutable bus_arb_cycles : int;
      (** Cycles spent waiting for the round-robin bus arbiter. *)
  mutable bus_busy_cycles : int;
      (** Cycles the bus was occupied by granted transactions. *)
  mutable snoops : int;  (** Private caches probed by bus broadcasts. *)
  mutable c2c_transfers : int;
      (** Fills supplied cache-to-cache by a snooped owner. *)
  mutable self_invs : int;
      (** Private copies self-invalidated at acquires (SI/SD), per level. *)
  mutable self_downs : int;
      (** Dirty private copies self-downgraded at releases (SI/SD), per
          level. *)
  mutable acquires : int;  (** Acquire fences performed by the protocol. *)
  mutable releases : int;  (** Release fences performed by the protocol. *)
}

val create : unit -> t

val save : t -> Warden_util.Bin.w -> unit
val restore : t -> Warden_util.Bin.r -> unit
(** Binary snapshot round trip over every counter, in declaration order. *)

val total_msgs : t -> int

