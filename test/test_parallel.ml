(* Host-parallelism guards and the bench harness's argv scanning: the
   pool-width cap ([Pool.cap_jobs]), Cliscan's flag handling, and the
   --filter selection. *)

open Warden_harness

(* 1. Pool.cap_jobs: clamp to [1 .. recommended_domain_count]. *)
let cap_jobs_test () =
  let budget = Domain.recommended_domain_count () in
  List.iter
    (fun jobs ->
      let r = Pool.cap_jobs jobs in
      let label = Printf.sprintf "jobs=%d" jobs in
      Alcotest.(check bool) (label ^ ": at least one") true (r >= 1);
      Alcotest.(check bool) (label ^ ": never widens") true (r <= max 1 jobs);
      Alcotest.(check int)
        (label ^ ": clamped to the budget")
        (min (max 1 jobs) budget)
        r)
    [ 1; 2; 3; 4; 16; 64; 0; -1 ]

(* 2. Cliscan: the bench harness's argv scanner. The regression it pins:
   a value flag (e.g. --jobs) followed immediately by another flag used
   to swallow that flag as its value, so
     bench.exe compare --jobs --obs full
   silently lost --obs AND misread --jobs. A value flag must only
   consume a following non-flag token. *)
let cliscan_test () =
  let module C = Warden_util.Cliscan in
  let value_flags = [ [ "--jobs"; "-j" ]; [ "--obs" ]; [ "--filter" ] ] in
  let scan args = C.create ~value_flags (Array.of_list ("bench.exe" :: args)) in
  (* the regression case *)
  let t = scan [ "compare"; "--jobs"; "--obs"; "full" ] in
  Alcotest.(check (list string))
    "flag not swallowed as a value" [ "compare" ] (C.positionals t);
  Alcotest.(check bool) "--jobs still seen" true (C.has t "--jobs");
  Alcotest.(check (option string))
    "--obs kept its value" (Some "full")
    (C.string_flag t [ "--obs" ]);
  Alcotest.check_raises "--jobs without a value is an error"
    (Invalid_argument "--jobs: missing value") (fun () ->
      ignore (C.int_flag t [ "--jobs"; "-j" ]));
  (* ordinary shapes keep working *)
  let t = scan [ "compare"; "a.json"; "b.json"; "--jobs"; "4" ] in
  Alcotest.(check (list string))
    "positionals in order"
    [ "compare"; "a.json"; "b.json" ]
    (C.positionals t);
  Alcotest.(check int) "--jobs value" 4 (Option.get (C.int_flag t [ "--jobs" ]));
  let t = scan [ "json"; "--jobs=8"; "--obs"; "counters" ] in
  Alcotest.(check int) "--jobs=8 form" 8 (Option.get (C.int_flag t [ "--jobs" ]));
  Alcotest.(check (option string))
    "--obs value" (Some "counters")
    (C.string_flag t [ "--obs" ]);
  Alcotest.(check (list string))
    "values never leak into positionals" [ "json" ] (C.positionals t);
  (* presence-only flags are dropped alone *)
  let t = scan [ "quick"; "--overhead"; "x.json" ] in
  Alcotest.(check bool) "presence flag seen" true (C.has t "--overhead");
  Alcotest.(check (list string))
    "presence flag takes no neighbor" [ "quick"; "x.json" ] (C.positionals t)

(* 2b. The bench harness's --filter flag: Cliscan must treat it as a
   value flag (so it can never swallow a following flag), and
   Suite.matching must select by substring, preserve suite order, treat
   the empty string as match-all, and find nothing for garbage. *)
let filter_flag_test () =
  let module C = Warden_util.Cliscan in
  let module Suite = Warden_pbbs.Suite in
  let value_flags = [ [ "--jobs"; "-j" ]; [ "--filter" ] ] in
  let t =
    C.create ~value_flags
      [| "bench.exe"; "quick"; "--filter"; "sort"; "--jobs"; "2" |]
  in
  Alcotest.(check (option string))
    "--filter carries its value" (Some "sort")
    (C.string_flag t [ "--filter" ]);
  Alcotest.(check int) "--jobs unaffected" 2 (Option.get (C.int_flag t [ "--jobs" ]));
  Alcotest.(check (list string)) "mode survives" [ "quick" ] (C.positionals t);
  let t = C.create ~value_flags [| "bench.exe"; "--filter"; "--jobs"; "2" |] in
  Alcotest.(check bool) "valueless --filter still seen" true (C.has t "--filter");
  Alcotest.(check (option string))
    "--filter never swallows a flag" None
    (C.string_flag t [ "--filter" ]);
  Alcotest.(check int)
    "the following flag keeps its value" 2
    (Option.get (C.int_flag t [ "--jobs" ]));
  (* Suite.matching semantics *)
  let all_names = List.map (fun (s : Warden_pbbs.Spec.t) -> s.Warden_pbbs.Spec.name) Suite.all in
  Alcotest.(check (list string))
    "empty substring matches everything in suite order" all_names
    (Suite.matching "");
  let contains_sub sub s =
    let n = String.length s and m = String.length sub in
    let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
    at 0
  in
  let sorts = Suite.matching "sort" in
  Alcotest.(check bool) "some benchmark matches \"sort\"" true (sorts <> []);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s contains \"sort\"" n)
        true (contains_sub "sort" n))
    sorts;
  Alcotest.(check (list string))
    "matches keep suite order" sorts
    (List.filter (fun n -> List.mem n sorts) all_names);
  Alcotest.(check (list string))
    "no match for garbage" [] (Suite.matching "no-such-benchmark");
  (* exact name is a substring of itself *)
  Alcotest.(check bool) "exact name matches itself" true
    (List.mem "msort" (Suite.matching "msort"))

let cliscan_bad_value_test () =
  let module C = Warden_util.Cliscan in
  let t =
    C.create
      ~value_flags:[ [ "--jobs" ] ]
      [| "bench.exe"; "--jobs"; "zero" |]
  in
  Alcotest.check_raises "non-integer value is an error"
    (Invalid_argument "--jobs: expected a positive integer") (fun () ->
      ignore (C.int_flag t [ "--jobs" ]))

let suite =
  [
    Alcotest.test_case "Pool.cap_jobs clamp" `Quick cap_jobs_test;
    Alcotest.test_case "Cliscan flag-swallowing regression" `Quick cliscan_test;
    Alcotest.test_case "Cliscan rejects bad values" `Quick
      cliscan_bad_value_test;
    Alcotest.test_case "bench --filter scanning and Suite.matching" `Quick
      filter_flag_test;
  ]

let () = Alcotest.run "warden-parallel" [ ("parallel", suite) ]
