type stats = { states : int; transitions : int; depth : int; truncated : bool }

let pp_stats ppf s =
  Format.fprintf ppf "%d states, %d transitions, depth %d%s" s.states
    s.transitions s.depth
    (if s.truncated then " (truncated)" else "")

type ('s, 'a) observation = {
  obs_state : 's;
  obs_depth : int;
  obs_candidates : 'a list;
  obs_enabled : 'a list;
}

type trace = {
  trace_parents : (Fingerprint.t * int) Fingerprint.Table.t;
  trace_init : Fingerprint.t;
}

type ('s, 'a) outcome = {
  stats : stats;
  violation : 's Ioa.Invariant.violation option;
  violation_step : ('s, 'a) Ioa.Exec.step option;
  step_failure : (('s, 'a) Ioa.Exec.step * string) option;
  key_clash : ('s * 's) option;
  trace : trace option;
  por_skipped : int;
  orbit_collapsed : int;
}

let component = "check.explorer"

(* Phase vocabulary of the profiled explorer: candidate generation +
   stepping ("expand"), flat codec serialization ("encode" — only the
   codec path spends time here; the string path renders inside
   "fingerprint"), key digesting ("fingerprint") and the seen-set
   section ("dedup") are common to both engines.  The parallel engine
   adds its coordination costs: "route" (pushing successor batches into
   other workers' rings, including full-ring retries), "flush" (draining
   the own inbound ring), "idle" (spinning at an empty frontier while
   handoffs are still in flight) and "barrier-wait" (waiting at a level
   epoch for the slowest worker; epoch runs only).  Nested phases pause
   the enclosing one, so the attributions stay disjoint. *)
let prof_phases =
  [
    "expand"; "encode"; "fingerprint"; "dedup"; "route"; "flush"; "idle";
    "barrier-wait";
  ]

let profile ~jobs =
  Obs.Prof.create ~phases:prof_phases ~slots:(max 1 jobs) ()

let progress_event sink (stats : stats) ~frontier =
  Obs.Trace.point sink ~component ~cls:"progress"
    [
      ("states", Obs.Trace.Int stats.states);
      ("transitions", Obs.Trace.Int stats.transitions);
      ("frontier", Obs.Trace.Int frontier);
      ("depth", Obs.Trace.Int stats.depth);
    ]

(* Parallel-engine tuning: successors bound for another worker accumulate
   in a per-destination buffer until [flush_batch] of them hand off as a
   single ring push; [ring_capacity] bounds each worker's inbound ring in
   batches (a full ring reports a stall instead of blocking);
   [expand_chunk] paces how many frontier entries a worker expands
   between drains of its inbound ring. *)
let flush_batch = 64
let ring_capacity = 256
let expand_chunk = 64

(* Expanded states between two progress points. *)
let progress_every = 10_000

(* The per-state RNG discipline: the generator's RNG at a state is seeded
   from the state's fingerprint and the run seed, so its draw is a pure
   function of (seed, state) whatever the visit order. *)
let per_state_rng ~seed fp = Random.State.make (Fingerprint.seed fp seed)

let candidates (type s a)
    (module A : Ioa.Automaton.GENERATIVE with type state = s and type action = a)
    ~key ~seed state =
  A.candidates (per_state_rng ~seed (Fingerprint.of_string (key state))) state

(* Waits until [ready ()] by spinning.  With [~sleepy] (more workers than
   cores) it backs off to short sleeps after [spin_limit] polls, so a
   worker waiting on a descheduled peer hands its core over instead of
   spinning out its time slice.  With an epoch barrier per BFS level this
   matters on deep graphs: a 10,000-level chain at jobs:4 on a 2-vCPU VM
   takes 2.7 s with the back-off and 113 s without. *)
let spin_limit = 1024

let await ~sleepy ready =
  let rec poll k =
    if not (ready ()) then
      if sleepy && k >= spin_limit then begin
        Unix.sleepf 50e-6;
        poll k
      end
      else begin
        Domain.cpu_relax ();
        poll (k + 1)
      end
  in
  poll 0

let run (type s a)
    (module A : Ioa.Automaton.GENERATIVE with type state = s and type action = a)
    ~key ~invariants ?(seed = [| 0 |]) ?(max_states = 200_000) ?max_depth
    ?(jobs = 1) ?state_rng ?(trace = false) ?check_step ?check_key ?ample
    ?canon ?codec ?(mode = `Deterministic) ?observe ?sink ?metrics ?prof ~init
    () =
  let jobs = max 1 jobs in
  (match prof with
  | Some p when Obs.Prof.slots p < jobs ->
      invalid_arg "Explorer.run: prof has fewer slots than jobs"
  | Some _ | None -> ());
  let throughput = mode = `Throughput in
  (* Hash compaction keeps fingerprints only: no retained representatives
     to audit keys against, no per-state table slots to hang a trace on. *)
  if throughput && trace then
    invalid_arg "Explorer.run: throughput mode cannot retain a trace";
  if throughput && Option.is_some check_key then
    invalid_arg "Explorer.run: throughput mode cannot audit keys";
  (* Profiling hooks: phase ids interned up front (no worker is running
     yet), hot-path enter/leave resolved to no-ops when [?prof] is absent
     so unprofiled runs stay byte-identical. *)
  let iphase name =
    match prof with Some p -> Obs.Prof.intern p name | None -> 0
  in
  let ph_expand = iphase "expand" in
  let ph_encode = iphase "encode" in
  let ph_fp = iphase "fingerprint" in
  let ph_dedup = iphase "dedup" in
  let ph_route = iphase "route" in
  let ph_flush = iphase "flush" in
  let ph_idle = iphase "idle" in
  let ph_barrier = iphase "barrier-wait" in
  let pf_enter, pf_leave =
    match prof with
    | Some p -> (Obs.Prof.enter p, Obs.Prof.leave p)
    | None -> ((fun ~slot:_ _ -> ()), (fun ~slot:_ _ -> ()))
  in
  (* Per-state expansion latency costs two clock reads per state; only
     recorded when both a profiler and a registry are attached. *)
  let obs_latency =
    match (prof, metrics) with
    | Some _, Some m ->
        fun t0 ->
          Obs.Metrics.observe m "explorer.expand_latency_us"
            (Int64.to_float (Int64.sub (Obs.Prof.now_ns ()) t0) /. 1e3)
    | _ -> ignore
  in
  let latency_t0 () =
    match (prof, metrics) with
    | Some _, Some _ -> Obs.Prof.now_ns ()
    | _ -> 0L
  in
  (* Parallel exploration requires candidate sets that are a pure function
     of the state — visit order is scheduling-dependent — so [jobs > 1]
     forces the per-state RNG discipline on. *)
  let state_rng = jobs > 1 || Option.value state_rng ~default:false in
  let check_state index state =
    List.find_opt
      (fun inv -> not (inv.Ioa.Invariant.holds state))
      invariants
    |> Option.map (fun inv ->
           { Ioa.Invariant.invariant = inv.Ioa.Invariant.name; index; state })
  in
  (* Fingerprint source: the flat codec image when a codec is attached
     (both modes, so throughput/deterministic parity is by construction —
     the per-state RNG seeds and dedup classes agree), the rendered key
     otherwise.  Codec scratches are single-threaded, so the parallel
     engine indexes one per worker slot; the "encode" phase isolates
     serialization cost from the digest proper. *)
  let fingerprint =
    match codec with
    | None ->
        fun ~slot state ->
          pf_enter ~slot ph_fp;
          let fp = Fingerprint.of_string (key state) in
          pf_leave ~slot ph_fp;
          fp
    | Some c ->
        let scratches = Array.init jobs (fun _ -> Codec.scratch ()) in
        fun ~slot state ->
          pf_enter ~slot ph_encode;
          let scr = scratches.(slot) in
          Codec.encode_into c scr state;
          pf_leave ~slot ph_encode;
          pf_enter ~slot ph_fp;
          let buf, len = Codec.scratch_contents scr in
          let fp = Fingerprint.of_bytes buf ~pos:0 ~len in
          pf_leave ~slot ph_fp;
          fp
  in
  (* Orbit canonicalization rewrites every state to its representative
     before fingerprinting, the initial state included.  Canonicalizers
     return their argument physically when it already is the
     representative, so the [!=] below counts genuine collapses only. *)
  let init = match canon with Some f -> f init | None -> init in
  let init_fp = fingerprint ~slot:0 init in
  (* ---------------- shared run state ------------------------------ *)
  (* Both engines count, cut and record through the same cells; the
     sequential engine is simply the parallel one's single worker without
     rings, so every reservation and result below is also correct when
     several domains race on it.  [stop] is raised by the first
     violation, step failure, key clash or truncation, and by the last
     level epoch of a parallel run. *)
  let stop = Atomic.make false in
  let truncated = Atomic.make false in
  let states = Atomic.make 0 in
  let expanded = Atomic.make 0 in
  let por_skipped = Atomic.make 0 in
  let orbit_collapsed = Atomic.make 0 in
  let transitions = Array.make jobs 0 in
  let max_depths = Array.make jobs 0 in
  let current_stats () =
    {
      states = Atomic.get states;
      transitions = Array.fold_left ( + ) 0 transitions;
      depth = Array.fold_left max 0 max_depths;
      truncated = Atomic.get truncated;
    }
  in
  let result_mu = Mutex.create () in
  let violation = ref None in
  let violation_step = ref None in
  let step_failure = ref None in
  let key_clash = ref None in
  let record cell v =
    Mutex.protect result_mu (fun () ->
        if Option.is_none !cell then cell := Some v);
    Atomic.set stop true
  in
  (* The violation and its incoming transition must be published as one
     unit: a racing worker's violation must not pair with ours. *)
  let record_violation v vstep =
    Mutex.protect result_mu (fun () ->
        if Option.is_none !violation then begin
          violation := Some v;
          violation_step := vstep
        end);
    Atomic.set stop true
  in
  (* Serializes the [observe] callback and trace emission: neither the
     analyzer's observation accumulator nor the sink implementations are
     required to be thread-safe. *)
  let aux_mu = Mutex.create () in
  let serialized f = if jobs = 1 then f () else Mutex.protect aux_mu f in
  (* One seen-set shard per worker, touched only by its owner.  Under
     [`Deterministic] a table keeps a representative per fingerprint —
     the state itself when [check_key] audits the dedup, [init]
     otherwise — and every hit is compared against it: a collision
     between states the equality distinguishes means the dedup merged
     genuinely different states, whether because [key] is not injective
     or because two keys share a fingerprint, and the exploration is
     unsound.  [`Throughput] hash-compacts to bare fingerprints instead
     (a collision silently merges — the mode trades the audit away for
     16 bytes/state).  [true] iff the fingerprint is new. *)
  let seen =
    Array.init jobs (fun _ ->
        if throughput then
          let set = Fingerprint.Set.create ~capacity:4096 () in
          fun fp _ -> Fingerprint.Set.add set fp
        else
          let reps = Fingerprint.Table.create 4096 in
          fun fp state ->
            match Fingerprint.Table.find_opt reps fp with
            | Some rep ->
                (match check_key with
                | Some equal when not (equal rep state) ->
                    record key_clash (rep, state)
                | Some _ | None -> ());
                false
            | None ->
                Fingerprint.Table.add reps fp
                  (if Option.is_some check_key then state else init);
                true)
  in
  (* Per-shard predecessor tables, written by the owner alongside the
     seen-set entry they describe; merged into one table at the end. *)
  let parents =
    if trace then
      Some (Array.init jobs (fun _ -> Fingerprint.Table.create 4096))
    else None
  in
  (* Admission, called only from the shard's owning worker (or from the
     main domain for [init], before any worker is spawned).  [via] is how
     the state was first reached: the predecessor's fingerprint, the
     action's index in the predecessor's enabled list (the hint Cex
     reconstruction tries first), and the concrete transition (for
     [violation_step]).  Slot [max_states + 1] is the crossing state —
     counted and invariant-checked but never expanded — and any racing
     reservation beyond it is handed back, so the final count is exact.
     States at [max_depth] are counted and checked but not expanded
     either.  [true] iff the state belongs on a frontier. *)
  let admit ~slot depth state fp via =
    pf_enter ~slot ph_dedup;
    let fresh = seen.(slot) fp state in
    (match (parents, via) with
    | Some ps, Some (pfp, idx, _, _) when fresh ->
        Fingerprint.Table.replace ps.(slot) fp (pfp, idx)
    | _ -> ());
    pf_leave ~slot ph_dedup;
    fresh
    && begin
         let n = Atomic.fetch_and_add states 1 + 1 in
         if n > max_states + 1 then begin
           ignore (Atomic.fetch_and_add states (-1));
           false
         end
         else begin
           if depth > max_depths.(slot) then max_depths.(slot) <- depth;
           match check_state n state with
           | Some v ->
               record_violation v
                 (Option.map
                    (fun (_, _, pre, action) ->
                      { Ioa.Exec.pre; action; post = state })
                    via);
               false
           | None ->
               if n > max_states then begin
                 Atomic.set truncated true;
                 Atomic.set stop true;
                 false
               end
               else
                 match max_depth with Some d -> depth < d | None -> true
         end
       end
  in
  let progress ~frontier =
    serialized (fun () ->
        (match sink with
        | Some s ->
            progress_event s (current_stats ()) ~frontier;
            Option.iter
              (fun p ->
                Obs.Prof.heartbeat p s ~component ~states:(Atomic.get states))
              prof
        | None -> ());
        Option.iter
          (fun m ->
            Obs.Metrics.observe m "explorer.frontier" (float_of_int frontier))
          metrics)
  in
  (* One expansion, common to both engines: candidates, the enabled
     filter, [observe], the [ample] filter, then every fired transition
     is stepped, checked, canonicalized and fingerprinted, and handed to
     [emit] with its [via] tuple. *)
  let expand ~slot ~rng ~frontier depth state fp emit =
    if (Atomic.fetch_and_add expanded 1 + 1) mod progress_every = 0 then
      progress ~frontier;
    pf_enter ~slot ph_expand;
    let lat0 = latency_t0 () in
    let candidates = A.candidates rng state in
    let actions = List.filter (A.enabled state) candidates in
    Option.iter
      (fun f ->
        serialized (fun () ->
            f
              {
                obs_state = state;
                obs_depth = depth;
                obs_candidates = candidates;
                obs_enabled = actions;
              }))
      observe;
    (* The ample filter sees the full enabled list (observers above
       already did too) and returns the subset to fire; [None] means the
       static facts were inconclusive here — expand fully. *)
    let fired =
      match ample with
      | None -> actions
      | Some f -> (
          match f state actions with
          | None -> actions
          | Some sub ->
              ignore
                (Atomic.fetch_and_add por_skipped
                   (List.length actions - List.length sub));
              sub)
    in
    List.iteri
      (fun idx action ->
        if not (Atomic.get stop) then begin
          let post = A.step state action in
          transitions.(slot) <- transitions.(slot) + 1;
          (match check_step with
          | None -> ()
          | Some f -> (
              let step = { Ioa.Exec.pre = state; action; post } in
              match f step with
              | Ok () -> ()
              | Error msg -> record step_failure (step, msg)));
          if not (Atomic.get stop) then begin
            let post =
              match canon with
              | None -> post
              | Some f ->
                  let rep = f post in
                  if rep != post then Atomic.incr orbit_collapsed;
                  rep
            in
            emit (depth + 1) post
              (fingerprint ~slot post)
              (fp, idx, state, action)
          end
        end)
      fired;
    obs_latency lat0;
    pf_leave ~slot ph_expand
  in
  if jobs = 1 then begin
    (* ---------------- sequential engine ---------------------------- *)
    (* A fixed RNG makes generative candidate sets deterministic along the
       BFS order; with [state_rng] they are instead a pure function of each
       state's fingerprint (the discipline the parallel engine uses), so
       the explored graph is identical at every job count. *)
    let rng = Random.State.make seed in
    let queue : (int * s * Fingerprint.t) Queue.t = Queue.create () in
    let push depth state fp via =
      if admit ~slot:0 depth state fp via then
        Queue.add (depth, state, fp) queue
    in
    let emit depth post fp via = push depth post fp (Some via) in
    push 0 init init_fp None;
    while (not (Atomic.get stop)) && not (Queue.is_empty queue) do
      let depth, state, fp = Queue.pop queue in
      let rng = if state_rng then per_state_rng ~seed fp else rng in
      expand ~slot:0 ~rng ~frontier:(Queue.length queue) depth state fp emit
    done
  end
  else begin
    (* ---------------- parallel engine ------------------------------ *)
    (* The fingerprint space is range-partitioned over the workers
       ([Fingerprint.shard]), and each worker domain exclusively owns its
       shard of [seen] and [parents] plus a private frontier queue.
       Successors that hash into another worker's shard are batched per
       destination and handed off through that worker's bounded MPSC
       {!Ring}, carrying their [via] tuple; everything else stays local.
       Admission — dedup, the [check_key] audit, predecessor recording —
       always runs on the owning domain and takes no lock; the only
       shared-write hot path left is the state-count reservation, one
       wait-free fetch-and-add per fresh state.

       Termination is distributed quiescence over a credit counter:
       [pending] is incremented the moment a successor is routed (before
       it becomes visible anywhere) and decremented when its processing
       ends — duplicate, rejection, or completed expansion.  Workers
       flush their buffered handoffs before idling, so [pending = 0]
       means no frontier entry, ring entry, buffered handoff or in-flight
       expansion exists anywhere.

       Barrier-free runs ([`Throughput] without [max_depth]) end there:
       a worker expands whatever its frontier holds while handoffs stream
       in, so [stats.depth] reports the maximum {i discovery} depth — an
       upper bound on the BFS eccentricity.  Epoch runs ([`Deterministic],
       or any [max_depth]) separate BFS levels instead: a fresh state is
       queued for the next level and its credit settled, so [pending = 0]
       means level [d] is complete — every level-[d] expansion finished
       and every handoff it made admitted.  Each worker then adds its
       next-level size to the other parity's counter and arrives at the
       epoch barrier; the last arrival ends the search if the next level
       is empty and otherwise opens it.  Every state is thus admitted at
       its true BFS depth and a [max_depth] cut is exact.  Workers live
       for the whole run.  One that crossed the barrier early may already
       hand level-[d + 1] work to one still waiting there; it sits in the
       ring until its owner crosses, since the barrier never drains.

       On exhaustive runs the explored graph is the sequential engine's
       under [state_rng]: per-state RNG makes candidate draws
       order-independent and dedup classes are engine-invariant.  Only
       discovery order — and with it, barrier-free, [depth], and which
       states a [max_states] cut happens to admit — is
       scheduling-dependent. *)
    let epochs = (not throughput) || Option.is_some max_depth in
    let rings :
        (int * s * Fingerprint.t * (Fingerprint.t * int * s * a) option) array
        Ring.t
        array =
      Array.init jobs (fun _ -> Ring.create ~capacity:ring_capacity)
    in
    let frontiers : (int * s * Fingerprint.t) Queue.t array =
      Array.init jobs (fun _ -> Queue.create ())
    in
    (* [credits.(d land 1)] counts level [d]'s outstanding work; a
       barrier-free run only ever uses slot 0. *)
    let credits = [| Atomic.make 0; Atomic.make 0 |] in
    let arrived = Atomic.make 0 in
    let epoch = Atomic.make 0 in
    let sleepy = jobs > Domain.recommended_domain_count () in
    let handoff_batches = Atomic.make 0 in
    let ring_full_stalls = Atomic.make 0 in
    let worker wid () =
      let alloc0 =
        match prof with
        | Some _ when wid > 0 -> Gc.allocated_bytes ()
        | _ -> 0.
      in
      let frontier = frontiers.(wid) in
      let next = if epochs then Queue.create () else frontier in
      let ring = rings.(wid) in
      let level = ref 0 in
      let pending = ref credits.(0) in
      (* A fresh state's credit carries over to its frontier entry when
         barrier-free; under epochs it settles here, and the next level's
         credit is added in bulk at the barrier. *)
      let enqueue entry =
        Queue.add entry next;
        if epochs then Atomic.decr !pending
      in
      let outbuf = Array.make jobs [] in
      let outcount = Array.make jobs 0 in
      (* Drains the inbound ring: each popped batch is admitted against
         the own shard. *)
      let drain_own () =
        if not (Ring.is_empty ring) then begin
          pf_enter ~slot:wid ph_flush;
          let rec go () =
            match Ring.try_pop ring with
            | None -> ()
            | Some batch ->
                Array.iter
                  (fun (depth, state, fp, via) ->
                    if
                      (not (Atomic.get stop))
                      && admit ~slot:wid depth state fp via
                    then enqueue (depth, state, fp)
                    else Atomic.decr !pending)
                  batch;
                go ()
          in
          go ();
          pf_leave ~slot:wid ph_flush
        end
      in
      let flush_dest dest =
        if outcount.(dest) > 0 then begin
          pf_enter ~slot:wid ph_route;
          let batch = Array.of_list outbuf.(dest) in
          outbuf.(dest) <- [];
          outcount.(dest) <- 0;
          let rec push () =
            if Atomic.get stop then
              ignore (Atomic.fetch_and_add !pending (-Array.length batch))
            else if Ring.try_push rings.(dest) batch then begin
              Atomic.incr handoff_batches;
              match metrics with
              | Some m ->
                  Obs.Metrics.observe m "explorer.ring_occupancy"
                    (float_of_int (Ring.occupancy rings.(dest)))
              | None -> ()
            end
            else begin
              Atomic.incr ring_full_stalls;
              (* The destination may itself be stalled pushing into our
                 ring; draining our inbox breaks the cycle, so a full
                 ring never deadlocks producers against each other. *)
              drain_own ();
              Domain.cpu_relax ();
              push ()
            end
          in
          push ();
          pf_leave ~slot:wid ph_route
        end
      in
      let flush_all () =
        for d = 0 to jobs - 1 do
          flush_dest d
        done
      in
      (* Routes one successor: credit first (before it becomes visible
         anywhere), then local admission or a buffered handoff toward the
         owning shard. *)
      let route depth post fp via =
        let dest = Fingerprint.shard fp ~shards:jobs in
        Atomic.incr !pending;
        if dest = wid then begin
          if admit ~slot:wid depth post fp (Some via) then
            enqueue (depth, post, fp)
          else Atomic.decr !pending
        end
        else begin
          outbuf.(dest) <- (depth, post, fp, Some via) :: outbuf.(dest);
          outcount.(dest) <- outcount.(dest) + 1;
          if outcount.(dest) >= flush_batch then flush_dest dest
        end
      in
      (* The epoch barrier, entered with an empty frontier once the level's
         credit reached zero.  [epoch] is read before arriving: it can
         only move once every worker, this one included, has arrived. *)
      let next_level () =
        let credit = credits.((!level + 1) land 1) in
        ignore (Atomic.fetch_and_add credit (Queue.length next));
        Queue.transfer next frontier;
        pf_enter ~slot:wid ph_barrier;
        let e = Atomic.get epoch in
        if Atomic.fetch_and_add arrived 1 = jobs - 1 then begin
          Atomic.set arrived 0;
          if Atomic.get credit = 0 then Atomic.set stop true;
          Atomic.incr epoch
        end
        else
          await ~sleepy (fun () -> Atomic.get epoch <> e || Atomic.get stop);
        pf_leave ~slot:wid ph_barrier;
        incr level;
        pending := credit
      in
      let rec loop () =
        if not (Atomic.get stop) then begin
          drain_own ();
          if not (Queue.is_empty frontier) then begin
            let k = ref 0 in
            while
              !k < expand_chunk
              && (not (Queue.is_empty frontier))
              && not (Atomic.get stop)
            do
              let depth, state, fp = Queue.pop frontier in
              expand ~slot:wid ~rng:(per_state_rng ~seed fp)
                ~frontier:(Queue.length frontier) depth state fp route;
              Atomic.decr !pending;
              incr k
            done;
            flush_all ();
            loop ()
          end
          else begin
            flush_all ();
            if Atomic.get !pending > 0 then begin
              (* Nothing local but work exists elsewhere: spin until a
                 handoff arrives or the level (or search) quiesces.  Our
                 outbufs were flushed above, so every credit we raised is
                 visible to whoever holds the matching work. *)
              pf_enter ~slot:wid ph_idle;
              await ~sleepy (fun () ->
                  Atomic.get stop
                  || Atomic.get !pending = 0
                  || not (Ring.is_empty ring));
              pf_leave ~slot:wid ph_idle;
              loop ()
            end
            else if epochs then begin
              next_level ();
              loop ()
            end
          end
        end
      in
      loop ();
      match prof with
      | Some p when wid > 0 ->
          Obs.Prof.add_alloc p ~slot:wid (Gc.allocated_bytes () -. alloc0)
      | _ -> ()
    in
    let init_owner = Fingerprint.shard init_fp ~shards:jobs in
    if admit ~slot:init_owner 0 init init_fp None then begin
      Atomic.incr credits.(0);
      Queue.add (0, init, init_fp) frontiers.(init_owner)
    end;
    let domains =
      Array.init (jobs - 1) (fun i ->
          Domain.spawn (fun () -> worker (i + 1) ()))
    in
    worker 0 ();
    Array.iter Domain.join domains;
    Option.iter
      (fun m ->
        Obs.Metrics.incr ~by:(Atomic.get handoff_batches) m
          "explorer.handoff_batches";
        Obs.Metrics.incr ~by:(Atomic.get ring_full_stalls) m
          "explorer.ring_full_stalls")
      metrics
  end;
  let stats = current_stats () in
  (match sink with
  | None -> ()
  | Some s ->
      Obs.Trace.point s ~component ~cls:"done"
        [
          ("states", Obs.Trace.Int stats.states);
          ("transitions", Obs.Trace.Int stats.transitions);
          ("depth", Obs.Trace.Int stats.depth);
          ("truncated", Obs.Trace.Bool stats.truncated);
        ]);
  let por_skipped = Atomic.get por_skipped in
  let orbit_collapsed = Atomic.get orbit_collapsed in
  (match metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.incr ~by:stats.states m "explorer.states";
      Obs.Metrics.incr ~by:stats.transitions m "explorer.transitions";
      Obs.Metrics.set m "explorer.depth" (float_of_int stats.depth);
      Obs.Metrics.set m "explorer.workers" (float_of_int jobs);
      if Option.is_some ample then
        Obs.Metrics.incr ~by:por_skipped m "explorer.por_skipped";
      if Option.is_some canon then
        Obs.Metrics.incr ~by:orbit_collapsed m "explorer.orbit_collapsed";
      if stats.truncated then Obs.Metrics.incr m "explorer.truncated");
  {
    stats;
    violation = !violation;
    violation_step = !violation_step;
    step_failure = !step_failure;
    key_clash = !key_clash;
    trace =
      Option.map
        (fun ps ->
          (* Shards hold disjoint fingerprints: fold them into the first. *)
          let all = ps.(0) in
          for i = 1 to jobs - 1 do
            Fingerprint.Table.iter (Fingerprint.Table.replace all) ps.(i)
          done;
          { trace_parents = all; trace_init = init_fp })
        parents;
    por_skipped;
    orbit_collapsed;
  }
