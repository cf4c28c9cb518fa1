(* Named results of one benchmark run. [metric] collects every number the
   run measured, by name and unit; run.py picks out the ones BENCHMARK.json
   declares. [exact] collects the deterministic values the self-test
   requires to repeat bit-for-bit at one seed. *)

let metrics : (string * (float * string)) list ref = ref []
let exact : (string * string) list ref = ref []

let metric name unit v =
  metrics := (name, (v, unit)) :: List.remove_assoc name !metrics

let exact_int name v = exact := (name, string_of_int v) :: !exact

let exact_float name v =
  exact := (name, Printf.sprintf "%.17g" v) :: !exact

(* A simulated quantity whose paper value is known: printed beside it. *)
let refs : (string * string) list ref = ref []
let paper name text = refs := (name, text) :: !refs

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_obj kvs =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) kvs)
  ^ "}"

let report () =
  List.iter
    (fun (name, (v, unit)) ->
      Printf.printf "  %-40s %16.6g %-8s%s\n" name v unit
        (match List.assoc_opt name !refs with
        | Some r -> "  (paper: " ^ r ^ ")"
        | None -> ""))
    (List.sort compare !metrics)

let print_json_line tag kvs = Printf.printf "%s %s\n" tag (json_obj kvs)

let result_line ~workload ~correct ~attempted ~failed =
  json_obj
    [
      ("workload", Printf.sprintf "%S" workload);
      ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        json_obj
          (List.map
             (fun (name, (v, unit)) ->
               ( name,
                 json_obj
                   [ ("value", json_number v); ("unit", Printf.sprintf "%S" unit) ]
               ))
             (List.sort compare !metrics)) );
    ]
