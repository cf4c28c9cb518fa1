type t = {
  mutable dir_accesses : int;
  mutable invalidations : int;
  mutable downgrades : int;
  mutable fwds : int;
  mutable msgs_ctl_intra : int;
  mutable msgs_ctl_inter : int;
  mutable msgs_data_intra : int;
  mutable msgs_data_inter : int;
  mutable writebacks : int;
  mutable l3_hits : int;
  mutable l3_misses : int;
  mutable dram_reads : int;
  mutable zero_fills : int;
  mutable ward_grants : int;
  mutable ward_adds : int;
  mutable ward_removes : int;
  mutable ward_rejects : int;
  mutable cam_lookups : int;
  mutable recon_blocks : int;
  mutable recon_flushes : int;
  mutable bus_txns : int;
  mutable bus_arb_cycles : int;
  mutable bus_busy_cycles : int;
  mutable snoops : int;
  mutable c2c_transfers : int;
  mutable self_invs : int;
  mutable self_downs : int;
  mutable acquires : int;
  mutable releases : int;
}

let create () =
  {
    dir_accesses = 0;
    invalidations = 0;
    downgrades = 0;
    fwds = 0;
    msgs_ctl_intra = 0;
    msgs_ctl_inter = 0;
    msgs_data_intra = 0;
    msgs_data_inter = 0;
    writebacks = 0;
    l3_hits = 0;
    l3_misses = 0;
    dram_reads = 0;
    zero_fills = 0;
    ward_grants = 0;
    ward_adds = 0;
    ward_removes = 0;
    ward_rejects = 0;
    cam_lookups = 0;
    recon_blocks = 0;
    recon_flushes = 0;
    bus_txns = 0;
    bus_arb_cycles = 0;
    bus_busy_cycles = 0;
    snoops = 0;
    c2c_transfers = 0;
    self_invs = 0;
    self_downs = 0;
    acquires = 0;
    releases = 0;
  }

let save t w =
  let module B = Warden_util.Bin in
  B.w_int w t.dir_accesses;
  B.w_int w t.invalidations;
  B.w_int w t.downgrades;
  B.w_int w t.fwds;
  B.w_int w t.msgs_ctl_intra;
  B.w_int w t.msgs_ctl_inter;
  B.w_int w t.msgs_data_intra;
  B.w_int w t.msgs_data_inter;
  B.w_int w t.writebacks;
  B.w_int w t.l3_hits;
  B.w_int w t.l3_misses;
  B.w_int w t.dram_reads;
  B.w_int w t.zero_fills;
  B.w_int w t.ward_grants;
  B.w_int w t.ward_adds;
  B.w_int w t.ward_removes;
  B.w_int w t.ward_rejects;
  B.w_int w t.cam_lookups;
  B.w_int w t.recon_blocks;
  B.w_int w t.recon_flushes;
  B.w_int w t.bus_txns;
  B.w_int w t.bus_arb_cycles;
  B.w_int w t.bus_busy_cycles;
  B.w_int w t.snoops;
  B.w_int w t.c2c_transfers;
  B.w_int w t.self_invs;
  B.w_int w t.self_downs;
  B.w_int w t.acquires;
  B.w_int w t.releases

let restore t r =
  let module B = Warden_util.Bin in
  t.dir_accesses <- B.r_int r;
  t.invalidations <- B.r_int r;
  t.downgrades <- B.r_int r;
  t.fwds <- B.r_int r;
  t.msgs_ctl_intra <- B.r_int r;
  t.msgs_ctl_inter <- B.r_int r;
  t.msgs_data_intra <- B.r_int r;
  t.msgs_data_inter <- B.r_int r;
  t.writebacks <- B.r_int r;
  t.l3_hits <- B.r_int r;
  t.l3_misses <- B.r_int r;
  t.dram_reads <- B.r_int r;
  t.zero_fills <- B.r_int r;
  t.ward_grants <- B.r_int r;
  t.ward_adds <- B.r_int r;
  t.ward_removes <- B.r_int r;
  t.ward_rejects <- B.r_int r;
  t.cam_lookups <- B.r_int r;
  t.recon_blocks <- B.r_int r;
  t.recon_flushes <- B.r_int r;
  t.bus_txns <- B.r_int r;
  t.bus_arb_cycles <- B.r_int r;
  t.bus_busy_cycles <- B.r_int r;
  t.snoops <- B.r_int r;
  t.c2c_transfers <- B.r_int r;
  t.self_invs <- B.r_int r;
  t.self_downs <- B.r_int r;
  t.acquires <- B.r_int r;
  t.releases <- B.r_int r

let total_msgs t =
  t.msgs_ctl_intra + t.msgs_ctl_inter + t.msgs_data_intra + t.msgs_data_inter

