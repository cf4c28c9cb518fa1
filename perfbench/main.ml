(* The measuring program of the repository benchmark. run.py builds it and
   turns its last line into the benchmark's result; see README.md.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--small] [--commit REV] [--spans FILE]

   One workload per process, so [peak_heap_mb] is that workload's own. *)

open Warden_machine

let usage () =
  prerr_endline
    "usage: main.exe --workload (pbbs-dual|serve-zipf|replay-mem|check-warden)\n\
    \       [--seed N] [--seconds S] [--trace 0|1] [--small] [--commit REV]\n\
    \       [--spans FILE]";
  exit 2

(* Set-up is timed [setup_min_reps] to [setup_max_reps] times, enough to
   spend about [setup_budget_s], and reports the median. A set-up shorter
   than [setup_batch_s] is timed in batches and divided, so that one of
   microseconds still gives a steady median. *)
let setup_min_reps = 5
let setup_max_reps = 25
let setup_budget_s = 0.5
let setup_batch_s = 20e-3

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let timed f =
  let t0 = Span.now () in
  let r = f () in
  (Span.now () -. t0, r)

type run = {
  secs : float;
  pass : Workloads.pass;
  words : float;  (** Minor words the pass allocated. *)
  traced : bool;
}

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref false and small = ref false in
  let commit = ref "unknown" and spans_file = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--small" :: rest -> small := true; parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | "--spans" :: v :: rest -> spans_file := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let make =
    match List.assoc_opt !workload Workloads.all with
    | Some make -> make
    | None -> usage ()
  in
  (* Pin every knob the environment could otherwise set (WARDEN_SIM_DOMAINS,
     WARDEN_SIM_SPEC, WARDEN_OBS) before any machine config is built. No
     call here goes through the domain pool, so jobs is 1. *)
  Config.set_default_sim_domains 1;
  Config.set_default_sim_spec false;
  Config.set_default_obs_level Config.Obs_off;
  let cfg = Config.dual_socket () in
  let str s = Printf.sprintf "%S" s in
  Out.print_json_line "@stamp"
    [
      ("workload", str !workload);
      ("seed", string_of_int !seed);
      ("size", str (if !small then "small" else "full"));
      ("trace", string_of_bool !trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", str Sys.ocaml_version);
      ("ocamlrunparam", str (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:""));
      ("jobs", "1");
      ("sim_domains", string_of_int cfg.Config.sim_domains);
      ("sim_spec", string_of_bool cfg.Config.sim_spec);
      ("obs", str (Config.obs_level_to_string cfg.Config.obs_level));
      ("commit", str !commit);
    ];
  let w =
    make ~seed:!seed ~size:(if !small then Workloads.Small else Workloads.Full)
  in
  let setup () =
    Span.enabled := !trace;
    Span.phase := "setup";
    fst (timed (fun () -> Span.with_ "setup" w.setup))
  in
  let first_setup = setup () in
  (* Enough passes to measure for at least [seconds] at the first pass's
     pace; at least two in a traced run. A traced run alternates
     untraced and traced passes, starting untraced, so the untraced ones
     are the reference for the tracing overhead. The peak heap is read
     after the first pass, so it covers one set-up and one pass. *)
  let one traced =
    Span.enabled := traced;
    Span.phase := "pass";
    let w0 = Gc.minor_words () in
    let secs, pass = timed (fun () -> Span.with_ "pass" w.pass) in
    { secs; pass; words = Gc.minor_words () -. w0; traced }
  in
  let first = one false in
  let peak_heap_mb =
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let want =
    max (if !trace then 2 else 1) (int_of_float (Float.ceil (!seconds /. first.secs)))
  in
  let runs = first :: List.init (want - 1) (fun i -> one (!trace && i mod 2 = 0)) in
  (* The repeated set-ups come after the passes, so their garbage never
     reaches the peak heap. *)
  let setup_s =
    let batch =
      if first_setup >= setup_batch_s then 1
      else int_of_float (setup_batch_s /. first_setup) + 1
    in
    let reps =
      int_of_float (setup_budget_s /. (first_setup *. float batch))
      |> max setup_min_reps |> min setup_max_reps
    in
    median
      (List.init reps (fun _ ->
           List.fold_left (fun a () -> a +. setup ()) 0. (List.init batch ignore)
           /. float batch))
  in
  let untraced, traced = List.partition (fun r -> not r.traced) runs in
  let host_s = median (List.map (fun r -> r.secs) untraced) in
  (* A pass that does not repeat the first pass's simulated results is
     nondeterministic: all of its operations count as failed. *)
  let attempted = List.fold_left (fun a r -> a + r.pass.attempted) 0 runs in
  let failed =
    List.fold_left
      (fun a r ->
        a
        + if r.pass.signature = first.pass.signature then r.pass.failed
          else r.pass.attempted)
      0 runs
  in
  Span.phase := "probe";
  if !trace then Span.with_ "probe" w.probe;
  w.finish ~host_s;
  Out.exact_float "pass.minor_words" first.words;
  Out.metric "setup_s" "s" setup_s;
  Out.metric "host_s" "s" host_s;
  Out.metric "peak_heap_mb" "MB" peak_heap_mb;
  Out.metric "ops_ok_pct" "%" (100. *. float (attempted - failed) /. float attempted);
  if !trace then begin
    let traced_s = median (List.map (fun r -> r.secs) traced) in
    Out.metric "trace.overhead_pct" "%" (100. *. (traced_s -. host_s) /. host_s);
    let per_pass = float (List.length traced) in
    let passes = Span.find "pass" in
    Out.metric "gc.minor_collections" "count"
      (Workloads.sumf (fun s -> float s.Span.minor_gcs) passes /. per_pass);
    Out.metric "gc.major_collections" "count"
      (Workloads.sumf (fun s -> float s.Span.major_gcs) passes /. per_pass);
    (* Self time per layer, per traced pass; the benchmark's own spans
       count as the harness. *)
    let self = Hashtbl.create 16 in
    List.iter
      (fun (s, t) ->
        if s.Span.phase = "pass" then begin
          let layer =
            match s.Span.name with
            | "pass" | "sim" | "replay" -> "harness"
            | name -> String.map (function '.' -> '_' | c -> c) name
          in
          Hashtbl.replace self layer
            (t +. Option.value (Hashtbl.find_opt self layer) ~default:0.)
        end)
      (Span.self_times ());
    Hashtbl.iter (fun layer t -> Out.metric ("self_s." ^ layer) "s" (t /. per_pass)) self;
    if !spans_file <> "" then Span.write_chrome !spans_file
  end;
  let correct = failed = 0 in
  Printf.printf "%s seed %d: %d passes, %d/%d operations failed%s\n" !workload
    !seed (List.length runs) failed attempted
    (if correct then "" else " -- FAILED VERIFICATION");
  Printf.printf "pass seconds:%s\n"
    (String.concat ""
       (List.map
          (fun r -> Printf.sprintf " %.4f%s" r.secs (if r.traced then "t" else ""))
          runs));
  Out.report ();
  Out.print_json_line "@exact" (List.rev !Out.exact);
  print_endline (Out.result_line ~workload:!workload ~correct ~attempted ~failed)
