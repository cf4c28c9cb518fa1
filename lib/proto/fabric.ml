open Warden_machine

type probe = {
  levels : int;
  state : States.pstate;
  data : Warden_cache.Linedata.t;
}

type t = {
  config : Config.t;
  stats : Pstats.t;
  obs : Warden_obs.Obs.t;
  peek_priv : core:int -> blk:int -> probe option;
  invalidate_priv : core:int -> blk:int -> probe option;
  downgrade_priv : core:int -> blk:int -> probe option;
  iter_priv : core:int -> (int -> unit) -> unit;
  read_shared : blk:int -> Bytes.t * [ `L3 | `Dram | `Zero ];
  llc_merge : blk:int -> Warden_cache.Linedata.t -> unit;
  llc_put_full : blk:int -> Bytes.t -> unit;
}

let num_cores t = Config.num_cores t.config

let socket_of_core t core = Config.socket_of_core t.config core

let hop t ~from_socket ~to_socket = Config.hop_lat t.config ~from_socket ~to_socket

let req_leg t ~from_socket ~to_socket =
  if t.config.Config.llc_remote then t.config.Config.inter_socket_lat
  else if from_socket = to_socket then 0
  else Config.hop_lat t.config ~from_socket ~to_socket

let dir_leg t ~socket ~blk =
  req_leg t ~from_socket:socket ~to_socket:(Config.home_socket t.config blk)

let dir_hop t ~socket ~blk =
  if t.config.Config.llc_remote then t.config.Config.inter_socket_lat
  else hop t ~from_socket:(Config.home_socket t.config blk) ~to_socket:socket

let msg t ~from_socket ~to_socket ~data =
  let inter = from_socket <> to_socket in
  (if data then
     if inter then t.stats.Pstats.msgs_data_inter <- t.stats.Pstats.msgs_data_inter + 1
     else t.stats.Pstats.msgs_data_intra <- t.stats.Pstats.msgs_data_intra + 1
   else if inter then t.stats.Pstats.msgs_ctl_inter <- t.stats.Pstats.msgs_ctl_inter + 1
   else t.stats.Pstats.msgs_ctl_intra <- t.stats.Pstats.msgs_ctl_intra + 1)

let dir_msg t ~socket ~blk ~data =
  let inter =
    t.config.Config.llc_remote || socket <> Config.home_socket t.config blk
  in
  (if data then
     if inter then t.stats.Pstats.msgs_data_inter <- t.stats.Pstats.msgs_data_inter + 1
     else t.stats.Pstats.msgs_data_intra <- t.stats.Pstats.msgs_data_intra + 1
   else if inter then t.stats.Pstats.msgs_ctl_inter <- t.stats.Pstats.msgs_ctl_inter + 1
   else t.stats.Pstats.msgs_ctl_intra <- t.stats.Pstats.msgs_ctl_intra + 1)

let dir_access t =
  t.stats.Pstats.dir_accesses <- t.stats.Pstats.dir_accesses + 1

(* Shared-bus accounting (snooping fabrics). The bus is the machine's
   interconnect, so its occupancy is priced as network energy the same
   way hop-counted messages are on the switched fabrics; arbitration and
   transfer cycles are kept distinct in the stats so the bench can report
   contention separately from bandwidth. *)
let bus_txn t ~arb ~busy =
  t.stats.Pstats.bus_txns <- t.stats.Pstats.bus_txns + 1;
  t.stats.Pstats.bus_arb_cycles <- t.stats.Pstats.bus_arb_cycles + arb;
  t.stats.Pstats.bus_busy_cycles <- t.stats.Pstats.bus_busy_cycles + busy

(* One message on the broadcast bus. Every snooper observes it, but it is
   a single wire transaction: counted once, as an intra-complex message. *)
let bus_msg t ~data =
  (if data then
     t.stats.Pstats.msgs_data_intra <- t.stats.Pstats.msgs_data_intra + 1
   else t.stats.Pstats.msgs_ctl_intra <- t.stats.Pstats.msgs_ctl_intra + 1)

let snoops t n = t.stats.Pstats.snoops <- t.stats.Pstats.snoops + n

let shared_read_latency t where =
  match where with
  | `L3 ->
      t.stats.Pstats.l3_hits <- t.stats.Pstats.l3_hits + 1;
      t.config.Config.l3_lat
  | `Zero ->
      t.stats.Pstats.zero_fills <- t.stats.Pstats.zero_fills + 1;
      t.config.Config.l3_lat
  | `Dram ->
      t.stats.Pstats.l3_misses <- t.stats.Pstats.l3_misses + 1;
      t.stats.Pstats.dram_reads <- t.stats.Pstats.dram_reads + 1;
      let extra =
        if t.config.Config.dram_remote then 2 * t.config.Config.inter_socket_lat
        else 0
      in
      t.config.Config.l3_lat + t.config.Config.dram_lat + extra
