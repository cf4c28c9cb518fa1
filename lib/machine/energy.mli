(** Event-based energy pricing, standing in for the McPAT power model the
    paper uses (§7).

    Energy is a pure function of event counts: each event has a fixed cost
    and {!of_counts} prices a run's counts into four buckets. The
    simulator counts each event once, in its statistics banks, and prices
    them when asked ([Warden_sim.Memsys.energy]). The paper's reported
    categories map as:
    - "Total Processor" = core + cache + DRAM buckets;
    - "Interconnect" / "Network" = the network bucket.

    Costs are published McPAT/CACTI ballparks for a 22 nm Xeon-class
    part; their absolute scale is irrelevant to the reproduced results,
    which are all relative (percent savings). *)

type costs = {
  core_cycle_pj : float;  (** Per core per cycle (dynamic + leakage share). *)
  l1_pj : float;
  l2_pj : float;
  l3_pj : float;
  dir_pj : float;  (** Directory lookup/update. *)
  dram_pj : float;
  msg_intra_pj : float;  (** Coherence message staying within a socket. *)
  msg_inter_pj : float;  (** Coherence message crossing sockets. *)
  cam_pj : float;  (** WARD range-CAM lookup. *)
  bus_cycle_pj : float;
      (** One cycle of shared-bus occupancy (arbitration or transfer) on a
          snooping machine; priced into the network bucket. *)
}

val default_costs : costs
(** Whole numbers of pJ, so every ledger is exact. *)

type t
(** An immutable ledger of picojoules per bucket. *)

val of_counts :
  core_cycles:int ->
  l1:int ->
  l2:int ->
  l3:int ->
  dir:int ->
  cam:int ->
  dram:int ->
  msgs_ctl_intra:int ->
  msgs_ctl_inter:int ->
  msgs_data_intra:int ->
  msgs_data_inter:int ->
  bus_cycles:int ->
  t
(** Price event counts at {!default_costs}. [core_cycles] is the sum over
    run phases of cores used × phase cycles. Cache accesses (l1, l2, l3),
    directory accesses and CAM lookups go to the cache bucket, DRAM
    accesses to the DRAM bucket, messages and bus cycles to the network
    bucket. A control message costs one flit; a data message carries a
    64-byte block and costs five. *)

(* Read energy, in picojoules. *)
val core_pj : t -> float
val cache_pj : t -> float
val dram_pj : t -> float
val network_pj : t -> float

val processor_pj : t -> float
(** core + cache + DRAM: the paper's "Total Processor". *)

val total_pj : t -> float
