(** Observability facade: the one object the simulator layers talk to.

    An [Obs.t] owns one {!Ring}, the {!Hist}, {!Sink_heatmap} and
    {!Sink_chrome} sinks, and the current simulated cycle. The engine
    records events in global simulated order on the one domain that runs
    the simulation.

    Recording never feeds back: no call here mutates simulated state, so
    cycles, statistics and energy are bit-identical across levels. At
    [Obs_off] every entry point is one load + one branch. *)

type t

val create : Warden_machine.Config.t -> t
(** Sized from the config's {!Warden_machine.Config.t.obs_level}. *)

val enabled : t -> bool
(** Counters level or above. *)

val full : t -> bool
(** Ring/trace recording active. *)

val level : t -> Warden_machine.Config.obs_level

val set_now : t -> int -> unit
(** Advance the recorder's view of simulated time. The engine calls this
    when it resumes a thread at an event's timestamp; only ring records
    consume it, so paths that cannot ring (plain hits) may skip it. *)

val access : t -> cls:int -> core:int -> blk:int -> lat:int -> unit
(** Record one memory access of class [cls] ({!Events.l1_hit} ..
    {!Events.upgrade}) with its total latency. *)

val event : t -> code:int -> core:int -> blk:int -> arg:int -> unit
(** Record one coherence event ({!Events.invalidation} .. {!Events.recon},
    except the region pair — see {!region}). *)

val region : t -> core:int -> lo:int -> hi:int -> exit:bool -> flushed:int -> unit
(** Record a WARD region activation or deactivation over byte range
    [\[lo, hi)]; [flushed] is the reconciliation flush count (exit only). *)

val fold : t -> unit
(** Drain the ring into the Chrome sink. The engine calls this at the end
    of a run (a full ring also drains itself); it is idempotent on an
    empty ring. *)

(** {2 Reading the sinks} *)

val count : t -> int -> int
(** Occurrences of an event code. Every recorded event goes into {!hist}
    under its code, and [count] and {!sum} read it there. *)

val sum : t -> int -> int
(** Arg-weighted total of an event code: total latency cycles for access
    classes, total cache levels for invalidations / downgrades — the
    quantity the protocol statistics banks accumulate, so e.g.
    [sum obs Events.invalidation = Pstats.invalidations] exactly. *)

val hist : t -> Hist.t
(** Per-event-class value histograms (class = event code): latency for
    access classes and duration events, the event's argument otherwise. *)

val heat : t -> Sink_heatmap.t
val chrome : t -> Sink_chrome.t

val render_summary : t -> string
(** Human-readable profile: event counts, latency histograms, hottest
    blocks, WARD region table. *)
