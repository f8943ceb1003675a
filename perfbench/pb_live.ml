(* The live workloads: a Live.Hub in this process, two dvsd endpoint
   processes, open-loop client load.

   Every message is timed from its due time to the moment the hub has
   observed its delivery at every member of its view.  The hub exposes
   per-(member, view) delivered positions (Hub.delivered_in); polling
   them after every Hub.poll stamps each position with the hub's clock.
   The position -> payload map comes from the collector's merged JSONL
   (the endpoints' "deliver" events), read once the fleet is down. *)

open Prelude
open Pb_util

(* ---- fleet hygiene: every child and the run directory are reaped on
   every exit path, including a watchdog cut-off ---- *)

let children : (int, unit) Hashtbl.t = Hashtbl.create 8
let run_dirs : string list ref = ref []
let run_roots : string list ref = ref []

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  Hashtbl.remove children pid

let remove_dir d =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
       (Sys.readdir d)
   with Sys_error _ -> ());
  try Unix.rmdir d with Unix.Unix_error _ -> ()

let cleanup_all () =
  Hashtbl.iter (fun pid () -> kill_and_reap pid) (Hashtbl.copy children);
  List.iter remove_dir !run_dirs;
  run_dirs := [];
  List.iter (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ()) !run_roots

let () = at_exit cleanup_all

(* Socket paths are relative to the checkout: absolute ones can exceed
   the 108-byte sun_path limit. *)
let fresh_dir =
  let n = ref 0 in
  fun root ->
    incr n;
    (try Unix.mkdir root 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
    if not (List.mem root !run_roots) then run_roots := root :: !run_roots;
    let d = Filename.concat root (Printf.sprintf "f%d-%d" (Unix.getpid ()) !n) in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
    run_dirs := d :: !run_dirs;
    d

type fleet = {
  dir : string;
  sock : string;
  hub : Live.Hub.t;
  pids : int option array;
  dvsd : string;
  merged : string;
}

let endpoints = 2
let universe = Proc.Set.universe endpoints

let spawn f p =
  let pid =
    Unix.create_process f.dvsd
      [|
        f.dvsd;
        "--proc";
        string_of_int p;
        "--connect";
        f.sock;
        "--trace";
        Filename.concat f.dir (Printf.sprintf "trace-%d.jsonl" p);
      |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  Hashtbl.replace children pid ();
  f.pids.(p) <- Some pid

let full_view hub =
  match Live.Hub.primary hub with
  | Some v -> Proc.Set.cardinal (View.set v) = endpoints
  | None -> false

exception Fleet_failed of string

(* Spawn a fleet and return it with its set-up time: fleet spawn until
   the hub holds the first full view. *)
let start ~root ~dvsd ~seed =
  let dir = fresh_dir root in
  let sock = Filename.concat dir "hub.sock" in
  let merged = Filename.concat dir "merged.jsonl" in
  let t0 = now () in
  let hub =
    Live.Hub.create
      { Live.Hub.sock_path = sock; universe; seed; merged_path = Some merged }
  in
  let f = { dir; sock; hub; pids = Array.make endpoints None; dvsd; merged } in
  let deadline = t0 +. 15. in
  let await what ok =
    while not (ok ()) do
      if now () > deadline then raise (Fleet_failed ("no " ^ what ^ " within 15 s"));
      Live.Hub.poll hub ~timeout:0.001
    done
  in
  (* one endpoint at a time: started together, the two start-ups ran
     in parallel or one after the other as the scheduler placed them,
     and set-up time took one of two values 2 ms apart *)
  for p = 0 to endpoints - 1 do
    spawn f p;
    await "connection"
      (fun () -> Proc.Set.mem p (Live.Hub.connected hub))
  done;
  await "full view" (fun () -> full_view hub);
  (f, now () -. t0)

let stop f =
  Live.Hub.shutdown f.hub;
  Array.iter
    (function
      | None -> ()
      | Some pid ->
          let deadline = now () +. 3. in
          let dead = ref false in
          while (not !dead) && now () < deadline do
            match Unix.waitpid [ WNOHANG ] pid with
            | 0, _ -> ignore (Unix.select [] [] [] 0.01)
            | _ -> dead := true
            | exception Unix.Unix_error (ECHILD, _, _) -> dead := true
          done;
          if !dead then Hashtbl.remove children pid else kill_and_reap pid)
    f.pids

(* ---- delivery observation ---- *)

type obs = {
  times : (string * string, Buf.t) Hashtbl.t;
      (* (proc, gid) -> hub time at which position sn+1 was observed *)
  mutable views : (View.t * float) list;  (* primaries, newest first *)
}

let observe o hub =
  (match (Live.Hub.primary hub, o.views) with
  | Some v, (v', _) :: _ when View.equal v v' -> ()
  | Some v, _ -> o.views <- (v, now ()) :: o.views
  | None, _ -> ());
  let t = now () in
  List.iteri
    (fun i (v, _) ->
      if i < 3 then
        let gs = Gid.to_string (View.id v) in
        Proc.Set.iter
          (fun p ->
            let k = (Proc.to_string p, gs) in
            let b =
              match Hashtbl.find_opt o.times k with
              | Some b -> b
              | None ->
                  let b = Buf.create () in
                  Hashtbl.replace o.times k b;
                  b
            in
            let d = Live.Hub.delivered_in hub ~proc:p ~gid:(View.id v) in
            while Buf.length b < d do
              Buf.push b t
            done)
          (View.set v))
    o.views

(* ---- messages ---- *)

type msgs = {
  due : Buf.t;  (* message k's due time; payload "m<k>" *)
  late : Buf.t;  (* injection time - due time *)
  mutable refused : int;  (* sends refused or never made *)
}

let new_msgs () = { due = Buf.create (); late = Buf.create (); refused = 0 }

let inject_one ?spans ms hub due =
  let k = Buf.length ms.due in
  Buf.push ms.due due;
  let inject () = Live.Hub.inject hub ("m" ^ string_of_int k) in
  let ok = match spans with Some s -> Spans.record s inject | None -> inject () in
  Buf.push ms.late (now () -. due);
  if not ok then ms.refused <- ms.refused + 1

(* The host's steal time, sampled from the poll loop. *)
let host = Steal.create ()

type tracing = { poll : Spans.t; inject : Spans.t }

let new_tracing () = { poll = Spans.create "hub.poll"; inject = Spans.create "hub.inject" }

let poll ?tr f o ~timeout =
  (match tr with
  | None -> Live.Hub.poll f.hub ~timeout
  | Some tr ->
      Spans.record tr.poll (fun () -> Live.Hub.poll f.hub ~timeout));
  observe o f.hub;
  Steal.tick host

(* Messages not yet observed at every member of the current view. *)
let backlog f =
  match Live.Hub.primary f.hub with
  | None -> 0
  | Some v ->
      let g = View.id v in
      Live.Hub.injected_in f.hub g
      - Proc.Set.fold
          (fun p acc -> min acc (Live.Hub.delivered_in f.hub ~proc:p ~gid:g))
          (View.set v) max_int

(* Open loop: message i of a step at rate r is due at start + i/r,
   whatever the system is doing.  The client keeps at most [window]
   messages outstanding in the current view (E20's in-flight cap); a
   message due while the window is full waits in the generator and is
   still timed from its due time.  Messages the generator could not send
   within [grace] seconds of the step's end count as failed. *)
let window = 2000
let grace = 20.

let open_loop ?tr ?(on_tick = fun _ -> ()) f o ms ~rate ~seconds =
  let start = now () in
  let n = int_of_float (rate *. seconds) in
  let due i = start +. (float_of_int i /. rate) in
  let i = ref 0 in
  let first = Buf.length ms.due in
  let give_up = start +. seconds +. grace in
  while !i < n && now () < give_up do
    let t = now () in
    on_tick t;
    let room = ref (window - backlog f) in
    while !i < n && !room > 0 && due !i <= t do
      inject_one ?spans:(Option.map (fun tr -> tr.inject) tr) ms f.hub (due !i);
      incr i;
      decr room
    done;
    let timeout = if !room <= 0 then 0.001 else Float.min 0.001 (due !i -. now ()) in
    poll ?tr f o ~timeout:(Float.max 0. timeout)
  done;
  while !i < n do
    Buf.push ms.due (due !i);
    Buf.push ms.late (now () -. due !i);
    ms.refused <- ms.refused + 1;
    incr i
  done;
  (first, Buf.length ms.due, start, now ())

(* The saturating step: E20's cap-driven loop, a new message whenever
   fewer than [cap] are outstanding in the current view, until [count]
   messages are sent or [seconds] have passed. *)
let saturate ?tr f o ms ~cap ~count ~seconds =
  let start = now () in
  let first = Buf.length ms.due in
  while Buf.length ms.due - first < count && now () -. start < seconds do
    let room = min 256 (min (cap - backlog f) (count - (Buf.length ms.due - first))) in
    for _ = 1 to room do
      inject_one ?spans:(Option.map (fun tr -> tr.inject) tr) ms f.hub
        (now ())
    done;
    poll ?tr f o ~timeout:0.0005
  done;
  (first, Buf.length ms.due, start, now ())

let drain ?tr f o ~seconds =
  let deadline = now () +. seconds in
  let drained () = full_view f.hub && backlog f = 0 in
  while (not (drained ())) && now () < deadline do
    poll ?tr f o ~timeout:0.001
  done;
  drained ()

(* Snapshots must agree byte for byte on every common prefix. *)
let snapshots_agree f o =
  Live.Hub.request_snapshots f.hub;
  let deadline = now () +. 5. in
  let want = Proc.Set.cardinal (Live.Hub.connected f.hub) in
  while List.length (Live.Hub.snapshots f.hub) < want && now () < deadline do
    poll f o ~timeout:0.005
  done;
  let snaps = Live.Hub.snapshots f.hub in
  let agree (_, vs1) (_, vs2) =
    List.for_all
      (fun (g, p1) ->
        match List.assoc_opt g vs2 with
        | None -> true
        | Some p2 ->
            let n = min (List.length p1) (List.length p2) in
            let cut l = List.filteri (fun i _ -> i < n) l in
            Bytes.equal
              (Check.Codec.encode Live.Wire.prefix_codec (cut p1))
              (Check.Codec.encode Live.Wire.prefix_codec (cut p2)))
      vs1
  in
  List.length snaps = want
  && List.for_all (fun a -> List.for_all (agree a) snaps) snaps

(* ---- after the run: per-message delivery times ---- *)

let payload_str key (e : Obs.Trace.event) =
  match List.assoc_opt key e.Obs.Trace.payload with
  | Some (Obs.Trace.Str s) -> Some s
  | _ -> None

let payload_int key (e : Obs.Trace.event) =
  match List.assoc_opt key e.Obs.Trace.payload with
  | Some (Obs.Trace.Int n) -> Some n
  | _ -> None

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let acc = ref [] in
      (try
         while true do
           acc := input_line ic :: !acc
         done
       with End_of_file -> ());
      close_in ic;
      List.rev !acc

(* [delivered.(k)]: hub time at which message k had been observed at
   every member of the view it was sequenced in ([infinity] if never).
   Message k is sent as payload "m<k>" and, if the client re-sends it
   (see [resend]), as "r<k>"; [delivery_times] gives the times of the
   first sends, [resent_times] those of the re-sends. *)
let placed_times prefix o ms lines =
  let n = Buf.length ms.due in
  let placed = Array.make n None in
  List.iter
    (fun line ->
      match Obs.Trace.event_of_string line with
      | Ok e when e.Obs.Trace.cls = "deliver" -> (
          match (payload_str "msg" e, payload_str "gid" e, payload_int "sn" e) with
          | Some msg, Some gid, Some sn
            when String.length msg > 1 && msg.[0] = prefix -> (
              match int_of_string_opt (String.sub msg 1 (String.length msg - 1)) with
              | Some k when k >= 0 && k < n -> placed.(k) <- Some (gid, sn)
              | _ -> ())
          | _ -> ())
      | _ -> ())
    lines;
  let members = Hashtbl.create 16 in
  List.iter
    (fun (v, _) ->
      Hashtbl.replace members (Gid.to_string (View.id v))
        (List.map Proc.to_string (Proc.Set.elements (View.set v))))
    o.views;
  Array.map
    (function
      | None -> infinity
      | Some (gid, sn) -> (
          match Hashtbl.find_opt members gid with
          | None -> infinity
          | Some ps ->
              List.fold_left
                (fun acc p ->
                  match Hashtbl.find_opt o.times (p, gid) with
                  | Some b when Buf.length b >= sn -> Float.max acc b.Buf.a.(sn - 1)
                  | _ -> infinity)
                neg_infinity ps))
    placed

let delivery_times = placed_times 'm'
let resent_times = placed_times 'r'

(* The client's retry, once the load has drained: every message of
   [first, last) not yet delivered at every member of its view is sent
   again, once, as "r<k>", and the fleet drains again.  VS lets a view
   change drop a superseded view's undelivered traffic (and a send with
   no primary is refused), so a client that needs every message
   re-sends it, as the paper's TO layer does.  A re-sent message is
   still timed from its first due time.  Returns how many were re-sent
   and whether the re-sends drained. *)
let resend f o ms (first, last) =
  (* the hub flushes the merged trace every 0.25 s of polling *)
  let until = now () +. 0.3 in
  while now () < until do
    poll f o ~timeout:0.01
  done;
  let delivered = delivery_times o ms (read_lines f.merged) in
  let lost = List.filter (fun k -> delivered.(k) = infinity) (List.init (last - first) (( + ) first)) in
  List.iter (fun k -> ignore (Live.Hub.inject f.hub ("r" ^ string_of_int k))) lost;
  (List.length lost, lost = [] || drain f o ~seconds:15.)

(* Latencies (ms) of the messages in [first, last) that were delivered;
   failed ones are counted separately (attempted/failed). *)
let latencies ms delivered (first, last) =
  let b = Buf.create () in
  for k = first to last - 1 do
    if delivered.(k) < infinity then Buf.push b ((delivered.(k) -. ms.due.Buf.a.(k)) *. 1000.)
  done;
  Buf.to_array b

type step = { label : string; range : int * int; t0 : float; t1 : float; rate : float }

(* The median, over the least-stolen [share] of the [width]-second
   windows of a step (by due time) that [keep] accepts, of each window's
   [q]-quantile latency.  A quarter suits low-load latency, which every
   vCPU stall inflates; saturation figures keep half, for samples. *)
let windowed ?(keep = fun _ -> true) ?(share = 0.25) q ms delivered s ~width =
  let first, last = s.range in
  let nw = max 1 (int_of_float ((s.t1 -. s.t0) /. width)) in
  let bufs = Array.init nw (fun _ -> Buf.create ()) in
  for k = first to last - 1 do
    if delivered.(k) < infinity then begin
      let due = ms.due.Buf.a.(k) in
      let w = min (nw - 1) (int_of_float ((due -. s.t0) /. width)) in
      Buf.push bufs.(w) ((delivered.(k) -. due) *. 1000.)
    end
  done;
  List.init nw (fun w -> (w, bufs.(w)))
  |> List.filter_map (fun (w, b) ->
         let ws = s.t0 +. (float_of_int w *. width) in
         if Buf.length b = 0 || not (keep ws) then None
         else
           Some (percentile q (Buf.to_array b), Steal.share host ws (ws +. width)))
  |> fun windows ->
  log "  %s p%.0f windows (ms)/steal share: %s" s.label (100. *. q)
    (String.concat " " (List.map (fun (v, st) -> Printf.sprintf "%.3g/%.3f" v st) windows));
  windows |> quietest ~share |> median

(* The same over the rate at which a step's messages completed delivery
   at every member, over the least-stolen half of the windows. *)
let windowed_rate delivered s ~width =
  let first, last = s.range in
  let nw = max 1 (int_of_float ((s.t1 -. s.t0) /. width)) in
  let counts = Array.make nw 0 in
  for k = first to last - 1 do
    let d = delivered.(k) in
    if d >= s.t0 && d < s.t0 +. (float_of_int nw *. width) then begin
      let w = int_of_float ((d -. s.t0) /. width) in
      counts.(w) <- counts.(w) + 1
    end
  done;
  let windows =
    List.init nw (fun w ->
        let ws = s.t0 +. (float_of_int w *. width) in
        (float_of_int counts.(w) /. width, Steal.share host ws (ws +. width)))
  in
  log "  %s windows (msgs/s)/steal share: %s" s.label
    (String.concat " " (List.map (fun (r, st) -> Printf.sprintf "%.0f/%.3f" r st) windows));
  windows
  |> quietest ~share:0.5 |> median

let count_within delivered (first, last) ~until =
  let c = ref 0 in
  for k = first to last - 1 do
    if delivered.(k) <= until && delivered.(k) < infinity then incr c
  done;
  !c

(* ---- per-layer figures, shared by both live workloads ---- *)

let counters f =
  let mc = Live.Hub.metrics f.hub in
  List.map
    (fun n -> (n, Obs.Metrics.count mc n))
    [ "proxy.routed"; "proxy.dropped"; "proxy.duplicated"; "proxy.reordered";
      "proxy.partitioned"; "soak.trace_events" ]

(* [c0]: the hub's counters when the measured window opened. *)
let live_layers ~c0 ~c1 ~tr ~msgs ~total_msgs ~wall ~hub_cpu ~eps ~rss ~lines =
  let per_msg x = if msgs > 0 then x /. float_of_int msgs else 0. in
  let cnt n = float_of_int (List.assoc n c1 - List.assoc n c0) in
  let faulted =
    cnt "proxy.dropped" +. cnt "proxy.duplicated" +. cnt "proxy.reordered"
    +. cnt "proxy.partitioned"
  in
  (* collector replay: the same lines through the parser and a fresh
     standard monitor *)
  let t0 = now_ns () in
  let events = List.filter_map (fun l -> Result.to_option (Obs.Trace.event_of_string l)) lines in
  let parse_ns = ns_since t0 in
  let mon = Obs.Monitor.create (Obs.Monitor.standard ()) in
  let t1 = now_ns () in
  List.iter (fun e -> ignore (Obs.Monitor.feed mon e)) events;
  let feed_ns = ns_since t1 in
  let nlines = float_of_int (max 1 (List.length lines)) in
  let seq, member =
    match eps with
    | [ (s : proc_sample); m ] -> (s, m)
    | _ -> (zero_sample, zero_sample)
  in
  let kmsgs = float_of_int total_msgs /. 1000. in
  let span_cost = Pb_probes.span_cost_ns () in
  let nspans = float_of_int (Spans.count tr.poll + Spans.count tr.inject) in
  let cpu_total = hub_cpu +. seq.cpu_s +. member.cpu_s in
  let cores = float_of_int (Domain.recommended_domain_count ()) in
  gate
    (cpu_total <= wall *. cores *. (1. +. reconcile_tolerance))
    "live: hub + endpoint CPU exceeds wall x cores";
  [
    m "hub.cpu_us_per_msg" "us" (per_msg (hub_cpu *. 1e6));
    m "hub.poll_us" "us" (per_msg (Spans.total_ns tr.poll /. 1000.));
    m "hub.inject_us" "us" (per_msg (Spans.total_ns tr.inject /. 1000.));
    m "proxy.routed_per_msg" "count" (per_msg (cnt "proxy.routed"));
    m "proxy.faulted_per_msg" "count" (per_msg faulted);
    m "trace.lines_per_msg" "count" (per_msg (cnt "soak.trace_events"));
    m "trace.parse_ns_per_line" "ns" (parse_ns /. nlines);
    m "monitor.feed_ns_per_line" "ns" (feed_ns /. nlines);
    m "endpoint.cpu_us_per_msg.seq" "us" (per_msg (seq.cpu_s *. 1e6));
    m "endpoint.cpu_us_per_msg.member" "us" (per_msg (member.cpu_s *. 1e6));
    m "endpoint.wakeups_per_msg" "count"
      (per_msg (float_of_int (seq.ctxt + member.ctxt)));
    m "endpoint.rss_kb_per_kmsg" "KB"
      (if kmsgs > 0. then
         float_of_int (List.fold_left (fun a s -> max a s.hwm_kb) 0 rss) /. kmsgs
       else 0.);
    m "live.cpu_share_of_wall" "%" (100. *. cpu_total /. (wall *. cores));
    m "trace.overhead_pct" "%" (100. *. nspans *. span_cost /. (wall *. 1e9));
  ]

let sample_eps f =
  Array.to_list
    (Array.map
       (function Some pid -> proc_sample (string_of_int pid) | None -> zero_sample)
       f.pids)

let peak_mb samples =
  float_of_int (List.fold_left (fun a s -> max a s.hwm_kb) 0 samples) /. 1024.

let setup_samples = 15

(* Set up [setup_samples] fleets; keep the last one for the run. *)
let setup ~root ~dvsd ~seed =
  let rec go i acc =
    let f, s = start ~root ~dvsd ~seed in
    if i = setup_samples then begin
      log "  setup samples (ms): %s"
        (String.concat " " (List.rev_map (fun x -> Printf.sprintf "%.2f" (x *. 1000.)) (s :: acc)));
      (f, median (s :: acc))
    end
    else begin
      stop f;
      remove_dir f.dir;
      go (i + 1) (s :: acc)
    end
  in
  go 1 []

let finish_gates f o ~drained =
  gate drained "live: the final view drained";
  gate (snapshots_agree f o) "live: snapshots agree byte for byte";
  gate (Live.Hub.ok f.hub) "live: no monitor latched"

(* ---- live-calm ---- *)

let latency_limit_ms = 25.

(* About what the fleet delivers at saturation on a 2-vCPU host. *)
let saturation_rate = 15_000.
let ladder = [ 10_000.; 12_000.; 14_000.; 16_000. ]

let calm ~root ~dvsd ~seed ~seconds ~traced =
  let f, setup_s = setup ~root ~dvsd ~seed in
  let o = { times = Hashtbl.create 16; views = [] } in
  let ms = new_msgs () in
  let tr = if traced then Some (new_tracing ()) else None in
  observe o f.hub;
  let sec frac = seconds *. frac in
  let step label rate frac =
    let first, last, t0, t1 = open_loop f o ms ~rate ~seconds:(sec frac) in
    ignore (drain f o ~seconds:2.);
    { label; range = (first, last); t0; t1; rate }
  in
  let low = step "low" 2000. 0.35 in
  let high = step "high" 8000. 0.1 in
  let rungs = List.map (fun r -> step (Printf.sprintf "ladder-%.0f" r) r 0.025) ladder in
  let hub_cpu0 = self_cpu_s () and eps0 = sample_eps f and c0 = counters f in
  (* a fixed number of messages, so the fleet's memory at the end of the
     run follows from the work done, not from how fast it went; the
     time cap only stops a fleet that runs at under half that pace *)
  let count = int_of_float (sec 0.45 *. saturation_rate) in
  let first, last, s0, s1 =
    saturate ?tr f o ms ~cap:window ~count ~seconds:(2. *. sec 0.45)
  in
  let hub_cpu = self_cpu_s () -. hub_cpu0 and eps1 = sample_eps f and c1 = counters f in
  let sat = { label = "saturating"; range = (first, last); t0 = s0; t1 = s1; rate = 0. } in
  let drained = drain f o ~seconds:10. in
  finish_gates f o ~drained;
  let eps = sample_eps f in
  stop f;
  let lines = read_lines f.merged in
  let delivered = delivery_times o ms lines in
  let lat s = latencies ms delivered s.range in
  let l_low = lat low and l_high = lat high in
  let sat_done = count_within delivered sat.range ~until:sat.t1 in
  let goodput = windowed_rate delivered sat ~width:0.5 in
  (* sustained: the highest rate of the 8k step and the ladder, below
     the first one whose p99 misses the limit (a growing backlog shows
     as a late tail) *)
  let sustained =
    let rec go acc = function
      | [] -> acc
      | s :: rest -> if percentile 0.99 (lat s) <= latency_limit_ms then go s.rate rest else acc
    in
    go 0. (high :: rungs)
  in
  let failed = Array.fold_left (fun a t -> if t = infinity then a + 1 else a) 0 delivered in
  let attempted = Buf.length ms.due in
  let info =
    [
      ("host.steal_pct", 100. *. Steal.share host low.t0 sat.t1);
      ("lat_p50_ms.high", percentile 0.5 l_high);
      ("lat_p99_ms.high", percentile 0.99 l_high);
      ("sustained_msgs_s", sustained);
      ("latency_limit_ms", latency_limit_ms);
      ("lat_p99_ms.low", percentile 0.99 l_low);
      ("lat_p50_ms.low.whole_step", percentile 0.5 l_low);
      ("lat_p99_ms.low.windowed", windowed 0.99 ms delivered low ~width:1.);
      ("lat_p99_ms.saturating.whole_step", percentile 0.99 (lat sat));
      ("lat_p50_ms.saturating", percentile 0.5 (lat sat));
      ("goodput.saturating.whole_step", float_of_int sat_done /. (sat.t1 -. sat.t0));
      ("fail_ratio", float_of_int failed /. float_of_int (max 1 attempted));
      ("gen.late_ms_p99", 1000. *. percentile 0.99 (Buf.to_array ms.late));
      ("samples.low", float_of_int (Array.length l_low));
      ("samples.high", float_of_int (Array.length l_high));
    ]
    @ List.map (fun s -> ("lat_p99_ms." ^ s.label, percentile 0.99 (lat s))) rungs
  in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "lat_p50_ms" "ms" (windowed 0.5 ms delivered low ~width:0.5);
      m "lat_p99_ms" "ms" (windowed ~share:0.5 0.99 ms delivered sat ~width:0.5);
      m "goodput_per_s" "1/s" goodput;
      m "peak_rss_mb" "MB" (peak_mb eps);
    ]
  in
  let layers =
    match tr with
    | None -> []
    | Some tr ->
        let sat_msgs = max 1 sat_done in
        let eps_sat =
          List.map2
            (fun a b ->
              { b with cpu_s = b.cpu_s -. a.cpu_s; ctxt = b.ctxt - a.ctxt })
            eps0 eps1
        in
        (* per-message costs are taken over the saturating step, where
           the parts must reconcile with the wall time *)
        (* spans are recorded during the saturating step only *)
        let path = spans_path (Printf.sprintf "live-calm-seed%d" seed) in
        Spans.write path [ tr.poll; tr.inject ];
        log "  spans written to %s" path;
        live_layers ~c0 ~c1 ~tr ~msgs:sat_msgs ~total_msgs:attempted
          ~wall:(sat.t1 -. sat.t0) ~hub_cpu ~eps:eps_sat ~rss:eps ~lines
        @ Pb_probes.engine_wire_conn ()
  in
  { e2e; info; layers; attempted; failed }

(* ---- live-churn ---- *)

let churn_rate = 4000.

(* A fixed calm/storm plan (fractions of the run): calm; Sim.Faults'
   storm (drop 0.3, duplicate 0.15, reorder 0.15) on the whole fleet;
   calm, with the sequencer SIGKILLed and later respawned; a partition
   that cuts the two endpoints apart; calm.  Disruptions fall in calm
   stretches, so what a view change strands is the calm in-flight
   window, not a storm's backlog.  The seed drives the proxy's fault
   draws, not the plan's shape, so runs with different seeds compare. *)
let kill_at = 0.55
let respawn_at = 0.6

let churn_timeline ~seconds =
  let whole = Sim.Partition.whole universe in
  let split =
    Sim.Partition.of_components
      (List.map Proc.Set.singleton (Proc.Set.elements universe))
  in
  let plan =
    [
      (0.15, "calm-0", Sim.Faults.calm, whole);
      (0.35, "storm-1", Sim.Faults.storm, whole);
      (0.65, "calm-2", Sim.Faults.calm, whole);
      (0.80, "partition-3", Sim.Faults.calm, split);
      (infinity, "calm-4", Sim.Faults.calm, whole);
    ]
    |> List.map (fun (until, label, intensity, partition) ->
           (until, { Sim.Faults.label; intensity; partition; steps = 1 }))
  in
  fun el -> snd (List.find (fun (until, _) -> el < until *. seconds) plan)

let churn ~root ~dvsd ~seed ~seconds ~traced =
  let f, setup_s = setup ~root ~dvsd ~seed in
  let o = { times = Hashtbl.create 16; views = [] } in
  let ms = new_msgs () in
  let tr = if traced then Some (new_tracing ()) else None in
  observe o f.hub;
  let plan = churn_timeline ~seconds in
  let start = now () in
  let phase = ref None in
  let killed_at = ref None and respawned = ref false in
  let kill_gid = ref None in
  (* the sequencer is the least member of the view: endpoint 0 *)
  let victim = 0 in
  let victim_sample = ref zero_sample in
  let on_tick t =
    let el = t -. start in
    let ph = plan el in
    (match !phase with
    | Some cur when cur == ph -> ()
    | _ ->
        phase := Some ph;
        log "  t=%.2fs phase %s" el ph.Sim.Faults.label;
        Live.Hub.set_phase f.hub (Some ph));
    (match (!killed_at, f.pids.(victim)) with
    | None, Some pid when el >= kill_at *. seconds ->
        victim_sample := proc_sample (string_of_int pid);
        kill_gid := Option.map View.id (Live.Hub.primary f.hub);
        kill_and_reap pid;
        log "  t=%.2fs SIGKILL endpoint %d (the sequencer)" el victim;
        f.pids.(victim) <- None;
        killed_at := Some (now ())
    | _ -> ());
    if !killed_at <> None && (not !respawned) && el >= respawn_at *. seconds then begin
      spawn f victim;
      log "  t=%.2fs respawn endpoint %d" el victim;
      respawned := true
    end
  in
  let hub_cpu0 = self_cpu_s () and c0 = counters f in
  let first, last, t0, t1 = open_loop ?tr ~on_tick f o ms ~rate:churn_rate ~seconds in
  let hub_cpu = self_cpu_s () -. hub_cpu0 and c1 = counters f in
  Live.Hub.set_phase f.hub None;
  let drained = drain ?tr f o ~seconds:15. in
  let resent, drained = if drained then resend f o ms (first, last) else (0, false) in
  finish_gates f o ~drained;
  let eps = sample_eps f in
  stop f;
  let lines = read_lines f.merged in
  let first_sends = delivery_times o ms lines in
  let delivered = Array.map2 Float.min first_sends (resent_times o ms lines) in
  let l = latencies ms delivered (first, last) in
  (* goodput counts first sends only; a re-send lands after the run *)
  let done_ = count_within first_sends (first, last) ~until:infinity in
  let failed = (last - first) - count_within delivered (first, last) ~until:infinity in
  (* outage: SIGKILL of the sequencer until the first delivery observed
     in a later primary view *)
  let outage =
    match (!killed_at, !kill_gid) with
    | Some k, Some g ->
        Hashtbl.fold
          (fun (_, gs) b acc ->
            match List.find_opt (fun (v, _) -> Gid.to_string (View.id v) = gs) o.views with
            | Some (v, _) when Gid.lt g (View.id v) && Buf.length b > 0 ->
                Float.min acc b.Buf.a.(0)
            | _ -> acc)
          o.times infinity
        -. k
    | _ -> nan
  in
  let attempted = last - first in
  let storm ws = not (Sim.Faults.is_calm (plan (ws -. t0)).Sim.Faults.intensity) in
  let info =
    [
      ("host.steal_pct", 100. *. Steal.share host t0 t1);
      ("outage_ms", outage *. 1000.);
      ("fail_ratio", float_of_int (attempted - done_) /. float_of_int (max 1 attempted));
      ("refused", float_of_int ms.refused);
      ("resent", float_of_int resent);
      ( "lost_on_view_change",
        float_of_int (Obs.Metrics.count (Live.Hub.metrics f.hub) "soak.lost_on_view_change") );
      ("gen.late_ms_p99", 1000. *. percentile 0.99 (Buf.to_array ms.late));
      ("views", float_of_int (List.length o.views));
      ("samples", float_of_int (Array.length l));
      ("lat_p50_ms.whole_run", percentile 0.5 l);
    ]
  in
  let e2e =
    [
      m "setup_s" "s" setup_s;
      m "lat_p50_ms" "ms"
        (windowed ~keep:(fun ws -> not (storm ws)) 0.5 ms delivered
           { label = "run"; range = (first, last); t0; t1 = t0 +. seconds; rate = churn_rate }
           ~width:0.5);
      m "lat_p99_ms" "ms" (percentile 0.99 l);
      m "goodput_per_s" "1/s" (float_of_int done_ /. (t1 -. t0));
      m "peak_rss_mb" "MB" (peak_mb (!victim_sample :: eps));
    ]
  in
  let layers =
    match tr with
    | None -> []
    | Some tr ->
        let eps =
          match eps with
          | seq :: rest ->
              {
                seq with
                cpu_s = seq.cpu_s +. !victim_sample.cpu_s;
                ctxt = seq.ctxt + !victim_sample.ctxt;
              }
              :: rest
          | [] -> []
        in
        let path = spans_path (Printf.sprintf "live-churn-seed%d" seed) in
        Spans.write path [ tr.poll; tr.inject ];
        log "  spans written to %s" path;
        live_layers ~c0 ~c1 ~tr ~msgs:(max 1 done_) ~total_msgs:attempted
          ~wall:(t1 -. t0) ~hub_cpu ~eps ~rss:(!victim_sample :: eps) ~lines
        @ Pb_probes.engine_wire_conn ()
  in
  { e2e; info; layers; attempted; failed }

