type costs = {
  core_cycle_pj : float;
  l1_pj : float;
  l2_pj : float;
  l3_pj : float;
  dir_pj : float;
  dram_pj : float;
  msg_intra_pj : float;
  msg_inter_pj : float;
  cam_pj : float;
  bus_cycle_pj : float;
}

let default_costs =
  {
    core_cycle_pj = 900.0;
    l1_pj = 15.0;
    l2_pj = 45.0;
    l3_pj = 240.0;
    dir_pj = 60.0;
    dram_pj = 15_000.0;
    msg_intra_pj = 300.0;
    msg_inter_pj = 6_000.0;
    cam_pj = 8.0;
    bus_cycle_pj = 120.0;
  }

type t = { core_pj : float; cache_pj : float; dram_pj : float; network_pj : float }

(* Every cost is a whole number of pJ, so each product and sum below is an
   exact integer in a float (below 2^53): the ledger does not depend on
   the order events happened in. *)
let of_counts ~core_cycles ~l1 ~l2 ~l3 ~dir ~cam ~dram ~msgs_ctl_intra
    ~msgs_ctl_inter ~msgs_data_intra ~msgs_data_inter ~bus_cycles =
  let c = default_costs in
  let ( *$ ) n pj = float_of_int n *. pj in
  {
    core_pj = core_cycles *$ c.core_cycle_pj;
    cache_pj =
      (l1 *$ c.l1_pj) +. (l2 *$ c.l2_pj) +. (l3 *$ c.l3_pj) +. (dir *$ c.dir_pj)
      +. (cam *$ c.cam_pj);
    dram_pj = dram *$ c.dram_pj;
    network_pj =
      (msgs_ctl_intra *$ c.msg_intra_pj)
      +. (msgs_ctl_inter *$ c.msg_inter_pj)
      +. ((5 * msgs_data_intra) *$ c.msg_intra_pj)
      +. ((5 * msgs_data_inter) *$ c.msg_inter_pj)
      +. (bus_cycles *$ c.bus_cycle_pj);
  }

let core_pj t = t.core_pj
let cache_pj t = t.cache_pj
let dram_pj t = t.dram_pj
let network_pj t = t.network_pj
let processor_pj t = t.core_pj +. t.cache_pj +. t.dram_pj
let total_pj t = processor_pj t +. t.network_pj
