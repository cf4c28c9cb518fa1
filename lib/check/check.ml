open Warden_util
open Warden_machine
open Warden_proto

type cfg = {
  name : string;
  cores : int;
  blks : int;
  regions : int;
  store_cap : int;
  region_cap : int;
  machine : Config.t;
  mk : Fabric.t -> Protocol.t;
  lockstep : (Fabric.t -> Protocol.t) option;
  data_only : bool;
}

let base ~name ~mk ~lockstep ?(cores = 3) ?(blks = 2) ?(regions = 2)
    ?(store_cap = 1) ?(machine = Config.dual_socket ()) () =
  {
    name;
    cores;
    blks;
    regions;
    store_cap;
    region_cap = 1;
    machine;
    mk;
    lockstep;
    data_only = false;
  }

let mesi = base ~name:"mesi" ~mk:Protocol.mesi ~lockstep:None

let warden =
  base ~name:"warden" ~mk:Warden_core.Warden.protocol ~lockstep:None

let msi_bus = base ~name:"msi-bus" ~mk:Msi_bus.protocol ~lockstep:None
let sisd = base ~name:"sisd" ~mk:Sisd.protocol ~lockstep:None

let equivalence =
  base ~name:"mesi=warden" ~mk:Warden_core.Warden.protocol
    ~lockstep:(Some Protocol.mesi)

(* Snooping MSI against directory MESI, data-only: the contents they agree
   on are the coherence contract; grant states (S where MESI grants E) and
   costs (bus arbitration vs hop latency) are architecturally free. *)
let msi_lockstep ?cores ?blks ?regions ?store_cap ?machine () =
  {
    (base ~name:"msi-bus=mesi" ~mk:Msi_bus.protocol
       ~lockstep:(Some Protocol.mesi) ?cores ?blks ?regions ?store_cap
       ?machine ())
    with
    data_only = true;
  }

let of_protocol ~name ~mk = base ~name ~mk ~lockstep:None

(* ---- one system under test: a world, or a lockstep pair ------------------ *)

type sys = One of World.t | Two of World.t * World.t

let copy_sys = function
  | One w -> One (World.copy w)
  | Two (a, b) -> Two (World.copy a, World.copy b)

let make cfg =
  let world mk region_base =
    World.create
      {
        World.cores = cfg.cores;
        blks = cfg.blks;
        regions = cfg.regions;
        store_cap = cfg.store_cap;
        region_cap = cfg.region_cap;
        region_base;
        machine = cfg.machine;
        mk;
      }
  in
  match cfg.lockstep with
  | None -> One (world cfg.mk 0)
  (* Lockstep shifts the region menu past the accessed blocks: region
     instructions still execute on both protocols, but no checked block is
     ever under WARD, so the two must agree exactly. The primary (WARDen)
     world drives [enabled] — its region CAM is the one that fills up. *)
  | Some mk2 -> Two (world cfg.mk cfg.blks, world mk2 cfg.blks)

let enabled = function One w | Two (w, _) -> World.enabled w

let describe op (r : World.result) =
  match op with
  | Op.Load _ | Op.Store _ ->
      Printf.sprintf "lat=%d val=%Ld" r.World.latency
        (Option.value ~default:0L r.World.value)
  | Op.Evict _ -> if r.World.accepted then "ok" else "no copy"
  | Op.Region_add _ -> if r.World.accepted then "accepted" else "rejected"
  | Op.Region_remove _ | Op.Acquire _ | Op.Release _ ->
      Printf.sprintf "lat=%d" r.World.latency

(* Apply one op; returns a rendering of the result(s) plus any per-op
   lockstep divergence (cost-and-value equivalence, checked only for the
   memory operations — region instructions and fences are architecturally
   free to differ in cost between the two protocols; [data_only] configs
   skip the latency comparison too). *)
let step cfg sys op =
  match sys with
  | One w -> (describe op (World.apply w op), [])
  | Two (a, b) ->
      let ra = World.apply a op in
      let rb = World.apply b op in
      let errs = ref [] in
      (match op with
      | Op.Load _ | Op.Store _ ->
          if (not cfg.data_only) && ra.World.latency <> rb.World.latency then
            errs :=
              Printf.sprintf "%s: latency diverges: %d (%s) vs %d (%s)"
                (Op.to_string op) ra.World.latency
                (Protocol.name (World.proto a))
                rb.World.latency
                (Protocol.name (World.proto b))
              :: !errs;
          if ra.World.value <> rb.World.value then
            errs :=
              Printf.sprintf "%s: value diverges: %Ld vs %Ld" (Op.to_string op)
                (Option.value ~default:(-1L) ra.World.value)
                (Option.value ~default:(-1L) rb.World.value)
              :: !errs
      | Op.Evict _ | Op.Region_add _ | Op.Region_remove _ | Op.Acquire _
      | Op.Release _ ->
          ());
      ( Printf.sprintf "%s | %s" (describe op ra) (describe op rb),
        List.rev !errs )

let audit cfg = function
  | One w -> World.check w
  | Two (a, b) ->
      World.check a @ World.check b
      @
      if cfg.data_only then World.compare_data a b
      else World.compare_states a b

(* The visited-set key: the state up to core renaming. A lockstep pair is
   renamed jointly — renaming each side on its own would merge pairs that
   are not renamings of each other. *)
let key = function
  | One w -> World.canonical_key [ w ]
  | Two (a, b) -> World.canonical_key [ a; b ]

let symmetry cfg =
  match make cfg with One w | Two (w, _) -> List.length (World.symmetries w)

let dump = function
  | One w -> World.dump w
  | Two (a, b) ->
      Printf.sprintf "--- %s ---\n%s--- %s ---\n%s"
        (Protocol.name (World.proto a))
        (World.dump a)
        (Protocol.name (World.proto b))
        (World.dump b)

(* ---- counterexamples and shrinking --------------------------------------- *)

type counterexample = {
  ops : Op.t list;
  violations : string list;
  trace : string;
}

type outcome =
  | Pass of { states : int; transitions : int; complete : bool }
  | Fail of counterexample

(* Replay [ops] from scratch; [Some errs] if some step violates an
   invariant (errors of the first failing step), [None] if clean. *)
let run_fails cfg ops =
  let sys = make cfg in
  let rec go = function
    | [] -> None
    | op :: rest -> (
        let _, step_errs = step cfg sys op in
        match step_errs @ audit cfg sys with [] -> go rest | errs -> Some errs)
  in
  go ops

let failing_prefix cfg ops =
  let sys = make cfg in
  let rec go acc = function
    | [] -> None
    | op :: rest ->
        let _, step_errs = step cfg sys op in
        if step_errs @ audit cfg sys <> [] then Some (List.rev (op :: acc))
        else go (op :: acc) rest
  in
  go [] ops

let remove_slice l i n = List.filteri (fun j _ -> j < i || j >= i + n) l

(* Truncate to the first failing prefix, then delta-debug: try removing
   chunks of halving sizes until no single-chunk removal still fails. *)
let shrink cfg ops0 =
  let truncate ops = Option.value (failing_prefix cfg ops) ~default:ops in
  let fails = function [] -> false | ops -> run_fails cfg ops <> None in
  let rec pass ops chunk i =
    if chunk < 1 then ops
    else if i >= List.length ops then pass ops (chunk / 2) 0
    else
      let cand = remove_slice ops i chunk in
      if fails cand then pass (truncate cand) chunk 0
      else pass ops chunk (i + 1)
  in
  let ops0 = truncate ops0 in
  pass ops0 (max 1 (List.length ops0 / 2)) 0

let render cfg ops violations =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "counterexample for %s (%d ops):\n" cfg.name
       (List.length ops));
  let sys = make cfg in
  List.iteri
    (fun i op ->
      let desc, step_errs = step cfg sys op in
      Buffer.add_string b
        (Printf.sprintf "  %2d. %-18s %s\n" (i + 1) (Op.to_string op) desc);
      List.iter
        (fun e -> Buffer.add_string b ("      step: " ^ e ^ "\n"))
        step_errs)
    ops;
  List.iter
    (fun v -> Buffer.add_string b ("  violation: " ^ v ^ "\n"))
    violations;
  Buffer.add_string b "final state:\n";
  Buffer.add_string b (dump sys);
  Buffer.contents b

let counterexample cfg ops =
  let ops = shrink cfg ops in
  let violations = Option.value (run_fails cfg ops) ~default:[] in
  Fail { ops; violations; trace = render cfg ops violations }

(* ---- engines -------------------------------------------------------------- *)

exception Found of Op.t list

(* Breadth-first exploration with memoization up to core renaming. Each node
   carries its forked world ({!World.copy}) so successors cost one fork
   plus one operation — no prefix replay — and every state is expanded
   exactly once. A fork owns only what a transition can change (caches,
   LLC lines, counts, flags, protocol state): about 500 words for a
   default-model WARDen world with four lines resident, against 3,700
   for a root, most of which is the accounting sinks every fork shares
   with it. Successors discovered at the depth bound are still
   invariant-checked, but they are never expanded, so only their key is
   kept, not their world (and they clear the [complete] flag); peak
   memory is the two largest consecutive BFS levels below the bound,
   plus the visited keys. *)
let explore cfg ~depth =
  let init = make cfg in
  match audit cfg init with
  | _ :: _ as errs ->
      Fail { ops = []; violations = errs; trace = render cfg [] errs }
  | [] -> (
      let visited = Hashtbl.create 65536 in
      let q = Queue.create () in
      let transitions = ref 0 in
      let truncated = ref false in
      Hashtbl.replace visited (key init) ();
      Queue.push (init, [], 0) q;
      try
        while not (Queue.is_empty q) do
          let sys, path, d = Queue.pop q in
          if d >= depth then truncated := true
          else
            List.iter
              (fun op ->
                incr transitions;
                let child = copy_sys sys in
                let _, step_errs = step cfg child op in
                let errs = step_errs @ audit cfg child in
                if errs <> [] then raise (Found (List.rev (op :: path)));
                let k = key child in
                if not (Hashtbl.mem visited k) then begin
                  Hashtbl.replace visited k ();
                  if d + 1 >= depth then truncated := true
                  else Queue.push (child, op :: path, d + 1) q
                end)
              (enabled sys)
        done;
        Pass
          {
            states = Hashtbl.length visited;
            transitions = !transitions;
            complete = not !truncated;
          }
      with Found ops -> counterexample cfg ops)

let fuzz cfg ~steps ~seed =
  let sys = make cfg in
  let rng = Splitmix.make seed in
  let seen = Hashtbl.create 1024 in
  Hashtbl.replace seen (key sys) ();
  let ops_rev = ref [] in
  let executed = ref 0 in
  try
    for _ = 1 to steps do
      match enabled sys with
      | [] -> raise Exit
      | en ->
          let op = List.nth en (Splitmix.int rng (List.length en)) in
          ops_rev := op :: !ops_rev;
          incr executed;
          let _, step_errs = step cfg sys op in
          if step_errs @ audit cfg sys <> [] then
            raise (Found (List.rev !ops_rev));
          Hashtbl.replace seen (key sys) ()
    done;
    Pass
      { states = Hashtbl.length seen; transitions = !executed; complete = false }
  with
  | Found ops -> counterexample cfg ops
  | Exit ->
      Pass
        {
          states = Hashtbl.length seen;
          transitions = !executed;
          complete = false;
        }

let pp_outcome fmt = function
  | Pass { states; transitions; complete } ->
      Format.fprintf fmt "pass: %d states, %d transitions%s" states transitions
        (if complete then ", state space exhausted" else "")
  | Fail { ops; violations = _; trace } ->
      Format.fprintf fmt "FAIL (%d-op counterexample)@.%s" (List.length ops)
        trace
