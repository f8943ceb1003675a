(* perfbench: the repository benchmark (see README.md).

     perfbench --workload NAME --seed N --seconds S --trace 0|1 --dvsd PATH

   Prints provenance, workload-specific figures and a metric table, then
   as its last line one JSON object: the end-to-end metrics (--trace 0)
   or the per-layer metrics (--trace 1).  Exits 1 when a correctness gate
   fails (after a result line with "correct": false) and 3 when the
   watchdog cuts a hung run off (no result line). *)

open Pb_util

let workloads = [ "live-calm"; "live-churn"; "explore"; "verify" ]

(* Every per-layer metric, in the order printed.  A traced run reports
   all of them; a layer the workload does not run reads 0. *)
let layer_metrics =
  [
    ("hub.cpu_us_per_msg", "us"); ("hub.poll_us", "us"); ("hub.inject_us", "us");
    ("proxy.routed_per_msg", "count"); ("proxy.faulted_per_msg", "count");
    ("trace.lines_per_msg", "count"); ("trace.parse_ns_per_line", "ns");
    ("monitor.feed_ns_per_line", "ns");
    ("endpoint.cpu_us_per_msg.seq", "us"); ("endpoint.cpu_us_per_msg.member", "us");
    ("endpoint.wakeups_per_msg", "count"); ("endpoint.rss_kb_per_kmsg", "KB");
    ("live.cpu_share_of_wall", "%");
    ("engine.us_per_msg", "us"); ("engine.retransmit_us", "us");
    ("wire.bytes_per_msg", "B"); ("wire.encode_ns", "ns"); ("wire.decode_ns", "ns");
    ("conn.frame_us", "us");
    ("explore.expand_ns", "ns"); ("explore.encode_ns", "ns");
    ("explore.fingerprint_ns", "ns"); ("explore.dedup_handoff_ns", "ns");
    ("explore.transitions_per_state", "count"); ("explore.handoffs_per_kstate", "count");
    ("explore.ring_full_stalls", "count"); ("explore.alloc_bytes_per_state", "B");
    ("explore.attributed_pct", "%");
    ("verify.expand_ns", "ns"); ("verify.key_ns", "ns"); ("verify.invariant_ns", "ns");
("verify.audit_ns", "ns"); ("verify.other_ns", "ns");
    ("verify.alloc_bytes_per_state", "B"); ("verify.attributed_pct", "%");
    ("trace.overhead_pct", "%");
  ]

let watchdog_s = 160

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let dvsd = ref "" and root = ref ".perfbench_run" in
  let nproc = ref "?" and digest = ref "?" and commit = ref "?" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME  " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measured duration");
      ("--trace", Arg.Set_int trace, "0|1  per-layer (traced) run");
      ("--dvsd", Arg.Set_string dvsd, "PATH  endpoint daemon binary");
      ("--root", Arg.Set_string root, "DIR  work directory for fleets");
      ("--nproc", Arg.Set_string nproc, "N  provenance: usable cores");
      ("--source-digest", Arg.Set_string digest, "HEX  provenance: source tree digest");
      ("--commit", Arg.Set_string commit, "REV  provenance: commit, if known");
    ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --dvsd PATH";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let live = String.length !workload >= 4 && String.sub !workload 0 4 = "live" in
  if live && not (Sys.file_exists !dvsd) then begin
    prerr_endline "perfbench: --dvsd must name the endpoint daemon";
    exit 2
  end;
  let bail code msg =
    prerr_endline ("perfbench: " ^ msg);
    Pb_live.cleanup_all ();
    exit code
  in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> bail 3 "watchdog: run cut off, counted failed"));
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> bail 3 "interrupted")))
    [ Sys.sigterm; Sys.sigint ];
  ignore (Unix.alarm watchdog_s);
  let traced = !trace = 1 in

  log "provenance: workload=%s seed=%d seconds=%g trace=%d nproc=%s domains=%d \
       ocaml=%s commit=%s source=%s"
    !workload !seed !seconds !trace !nproc (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit !digest;
  let { e2e; info; layers; attempted; failed } =
    try
      match !workload with
      | "live-calm" -> Pb_live.calm ~root:!root ~dvsd:!dvsd ~seed:!seed ~seconds:!seconds ~traced
      | "live-churn" -> Pb_live.churn ~root:!root ~dvsd:!dvsd ~seed:!seed ~seconds:!seconds ~traced
      | "explore" -> Pb_check.explore ~seed:!seed ~seconds:!seconds ~traced
      | _ -> Pb_check.verify ~seed:!seed ~seconds:!seconds ~traced
    with
    | Pb_live.Fleet_failed msg -> bail 1 ("fleet failed: " ^ msg)
    | Unix.Unix_error (e, fn, _) -> bail 1 (fn ^ ": " ^ Unix.error_message e)
  in
  ignore (Unix.alarm 0);
  Pb_live.cleanup_all ();
  List.iter (fun (k, v) -> log "  %-34s %14.6g" k v) info;
  let metrics =
    if not traced then e2e
    else
      List.map
        (fun (name, unit_) ->
          match List.find_opt (fun x -> x.name = name) layers with
          | Some x -> x
          | None -> m name unit_ 0.)
        layer_metrics
  in
  if traced then log "end-to-end (traced run, not the reported figures):";
  if traced then print_metrics_table e2e;
  log "%s:" (if traced then "per-layer" else "end-to-end");
  print_metrics_table metrics;
  let bad = List.filter (fun x -> Float.is_nan x.value || Float.abs x.value = infinity) metrics in
  List.iter (fun x -> gate false ("metric " ^ x.name ^ " is not a finite number")) bad;
  if !failures <> [] then begin
    let finite x = if Float.is_finite x.value then x else { x with value = 0. } in
    print_endline
      (result_line ~correct:false ~attempted ~failed (List.map finite metrics));
    exit 1
  end;
  print_endline (result_line ~correct:true ~attempted ~failed metrics)
