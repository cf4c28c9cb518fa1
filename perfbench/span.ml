(* In-memory spans around the benchmark's calls into the repository's
   libraries. Off by default: [with_] then costs one branch. When on, each
   span records wall time and GC counter deltas; spans of one simulation
   or replay share a [group] id. Everything stays in memory until
   [write_chrome] dumps it at the end of the run. *)

type t = {
  id : int;
  name : string;
  phase : string;  (** Which part of the run: set-up, pass or probe. *)
  parent : int;  (** [-1] for a root span. *)
  group : int;
  attrs : (string * string) list;
  t0 : float;
  mutable t1 : float;
  mutable minor_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable counts : (string * float) list;
      (** Work counted at this boundary, for per-span ratios. *)
}

let enabled = ref false
let phase = ref "setup"
let spans : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0
let next_group = ref 0

let new_group () =
  incr next_group;
  !next_group

(* Seconds on the monotonic clock, at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let with_ ?(attrs = []) ?group name f =
  if not !enabled then f ()
  else begin
    let parent, inherited =
      match !stack with [] -> (-1, 0) | p :: _ -> (p.id, p.group)
    in
    let group = Option.value group ~default:inherited in
    let g0 = Gc.quick_stat () in
    let s =
      {
        id = !next_id;
        name;
        phase = !phase;
        parent;
        group;
        attrs;
        t0 = now ();
        t1 = 0.;
        minor_words = 0.;
        minor_gcs = 0;
        major_gcs = 0;
        counts = [];
      }
    in
    incr next_id;
    stack := s :: !stack;
    let finish () =
      s.t1 <- now ();
      let g1 = Gc.quick_stat () in
      s.minor_words <- g1.Gc.minor_words -. g0.Gc.minor_words;
      s.minor_gcs <- g1.Gc.minor_collections - g0.Gc.minor_collections;
      s.major_gcs <- g1.Gc.major_collections - g0.Gc.major_collections;
      stack := List.tl !stack;
      spans := s :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* Attach a count to the innermost open span. *)
let count k v = match !stack with s :: _ -> s.counts <- (k, v) :: s.counts | [] -> ()

let duration s = s.t1 -. s.t0
let attr s k = List.assoc_opt k s.attrs
let counted s k = Option.value (List.assoc_opt k s.counts) ~default:0.

(* Children are exactly the spans opened while the parent was on top of
   the stack, so they nest inside it and never overlap each other: self
   time is the parent's duration minus the sum of its children's. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    !spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.))
    !spans

(* Spans of the timed passes with this name and these attributes. *)
let find ?(attrs = []) name =
  List.filter
    (fun s ->
      s.phase = "pass" && s.name = name
      && List.for_all (fun (k, v) -> attr s k = Some v) attrs)
    !spans

(* Whether any timed pass was traced: span-derived metrics exist only then. *)
let traced () = List.exists (fun s -> s.phase = "pass") !spans

(* Chrome trace-event format (load in chrome://tracing or Perfetto). *)
let write_chrome path =
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity !spans in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"group\":%d,\"minor_words\":%.0f,\"minor_gcs\":%d,\"major_gcs\":%d,\"phase\":%S%s}}\n"
        (if i = 0 then "" else ",")
        s.name
        ((s.t0 -. base) *. 1e6)
        (duration s *. 1e6)
        s.id s.parent s.group s.minor_words s.minor_gcs s.major_gcs s.phase
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf ",%S:%S" k v) s.attrs
           @ List.map (fun (k, v) -> Printf.sprintf ",%S:%.17g" k v) s.counts)))
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc
