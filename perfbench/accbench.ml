(* The repository benchmark: ACC against strict 2PL on four closed-loop
   workloads, through the shipped wall-clock drivers.

     accbench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints the end-to-end metrics, measured with tracing off
   (except the ACC latency of tpcc-partitioned, see [end_to_end]).
   --trace 1 prints the per-layer metrics: timed calls into each layer
   (Probes), driver counters from an untraced round, and a lossless traced
   round.  Either way the last line of stdout is one JSON object
   {"correct", "attempted", "failed", "metrics"}; every line before it is a
   human-readable report.

   Load model: closed loops with no think time.  Each worker domain runs a
   fixed number of transactions per round, the next one only after the
   previous one completes; inputs are drawn from the round's seed, which is
   derived from --seed.  Rounds repeat until --seconds have passed and every
   side has at least [min_commits] commits, so each p99 has at least ten
   samples beyond it.  Both sides run the drivers' shipped defaults: direct
   in-memory WAL (every append is a flush), lock fast path on, batched
   footprints off; the ACC side retries victimized steps until they complete
   (see [acc_options]).

   Every round is checked: the workload's consistency oracle, and (single
   node) leaked locks and waiters.  Any violation, and in traced rounds any
   dropped event, open span or orphaned event, exits 1 without a result.

   The result line of --trace 0 holds acc_txn_s, acc_p90_ms, twopl_txn_s,
   setup_s and heap_peak_mb; the report above it also prints acc_p50_ms,
   acc_p99_ms, twopl_p50_ms and twopl_p99_ms, too unsteady from run to run
   to gate on (see [end_to_end]), and failed_frac, which the result line
   carries as its "failed" count over "attempted".  On
   tpcc-partitioned the ACC side is Dist_driver, which has no 2PL mode: the
   2PL figures there are strict 2PL on the same four warehouses, unpartitioned. *)

module P = Acc_tpcc.Parallel_driver
module D = Acc_dist.Dist_driver
module Engine = Acc_parallel.Engine
module Executor = Acc_txn.Executor
module Params = Acc_tpcc.Params
module Txns = Acc_tpcc.Txns
module Tally = Acc_util.Stats.Tally
module Histogram = Acc_util.Metrics.Histogram
module Snapshot = Acc_util.Metrics.Histogram.Snapshot
module Registry = Acc_obs.Registry
module Trace = Acc_obs.Trace
module Span = Acc_obs.Span
module Json = Acc_obs.Json

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt
let now = Unix.gettimeofday
let min_commits = 1000

(* ---------- workloads ---------------------------------------------------- *)

type workload = {
  name : string;
  round : int;
      (** transactions per worker domain per round: small, so a run fits as
          many rounds, and as many input seeds, as its time allows *)
  single : P.config;
      (** both sides of a single-node workload; on a partitioned one, the
          unpartitioned strict-2PL comparator *)
  dist : D.config option;  (** the ACC side runs partitioned under 2PC *)
}

(* The ACC side retries a step victimized by the deadlock detector, or
   timed out at a lock deadline, until the step completes, as the strict-2PL
   side retries a victimized transaction until it commits.  Under the
   shipped retry limit of one, a step victimized twice compensates its
   transaction: on longreader one or two ACC transactions in 40,000, a
   failure whose count differs from run to run. *)
let acc_options = { Acc_core.Runtime.default_options with step_retry_limit = max_int }

let tpcc ~warehouses ~mix ~domains ~compute =
  {
    P.default_config with
    P.domains;
    acc_options;
    compute_between = compute;
    mix;
    params = { Params.default with Params.warehouses };
  }

let workloads =
  [
    {
      name = "tpcc-uncontended";
      round = 260;
      single = tpcc ~warehouses:1 ~mix:P.Standard ~domains:1 ~compute:0.;
      dist = None;
    };
    {
      name = "tpcc-contended";
      round = 130;
      single = tpcc ~warehouses:1 ~mix:P.New_order_payment ~domains:2 ~compute:0.001;
      dist = None;
    };
    {
      name = "longreader";
      round = 130;
      single =
        {
          P.default_config with
          P.domains = 2;
          acc_options;
          compute_between = 0.001;
          workload = Some (Acc_workload.Long_reader.make Acc_workload.default_spec);
        };
      dist = None;
    };
    {
      name = "tpcc-partitioned";
      round = 130;
      single = tpcc ~warehouses:4 ~mix:P.Standard ~domains:2 ~compute:0.001;
      dist =
        Some
          {
            D.default_config with
            D.domains = 2;
            acc_options;
            partitions = 2;
            compute_between = 0.001;
            params = { Params.default with Params.warehouses = 4 };
            transport = `Loopback;
          };
    };
  ]

(* ---------- one round of one side ---------------------------------------- *)

(* What a round contributes to the end-to-end figures.  Attempts are client
   transactions; a driver's internal retries (deadlock victims, lock
   timeouts) are not attempts.  [scripted] aborts are the workload's own
   (TPC-C's 1% new-order rollbacks, the plugin abort rate) and are not
   failures. *)
type sample = {
  committed : int;
  scripted : int;
  failed : int;
  seconds : float;
  lat : Tally.t;  (** per committed transaction, retries included *)
}

let check_single what (r : P.report) =
  (match r.P.violations with
  | [] -> ()
  | v :: _ as all ->
      violation "%s: %d consistency violation(s), first: %s" what (List.length all) v);
  if r.P.leaked_locks > 0 || r.P.leaked_waiters > 0 then
    violation "%s: %d leaked lock(s), %d leaked waiter(s)" what r.P.leaked_locks
      r.P.leaked_waiters

let run_single wl system ~seed ~txns =
  let r = P.run { wl.single with P.system; seed; duration = 0.; txns_per_domain = Some txns } in
  check_single (Printf.sprintf "%s seed %d" wl.name seed) r;
  r

(* an ACC forced abort compensates and is counted under both headings *)
let unscripted_comps (r : P.report) = max 0 (r.P.compensations - r.P.forced_aborts)

let single_sample (r : P.report) =
  {
    committed = r.P.committed;
    scripted = r.P.forced_aborts;
    failed = unscripted_comps r;
    seconds = r.P.measured;
    lat = r.P.response;
  }

(* Dist_driver does not split its aborts into scripted and unscripted ones.
   Its inputs are a pure function of the seed, so regenerate them the way
   the driver does (one split stream per worker, [txns] draws each) and
   count the new-orders flagged to roll back. *)
let dist_scripted d ~seed ~txns =
  let base = Txns.default_env ~seed:((seed * 31) + 1) d.D.params in
  let envs =
    Array.init d.D.domains (fun _ ->
        { base with Txns.gen = Acc_tpcc.Random_gen.split base.Txns.gen })
  in
  Array.fold_left
    (fun n env ->
      let n = ref n in
      for _ = 1 to txns do
        match Txns.gen_input env with
        | Txns.New_order { Txns.no_fail_last = true; _ } -> incr n
        | _ -> ()
      done;
      !n)
    0 envs

let dist_uncommitted (r : D.report) =
  r.D.compensations + (r.D.cross_attempted - r.D.cross_committed)

let run_dist wl d ~seed ~txns =
  let r = D.run { d with D.seed; duration = 0.; txns_per_domain = Some txns } in
  (match r.D.violations with
  | [] -> ()
  | v :: _ as all ->
      violation "%s seed %d: %d merged-database violation(s), first: %s" wl.name seed
        (List.length all) v);
  let scripted = dist_scripted d ~seed ~txns in
  let uncommitted = dist_uncommitted r in
  if scripted > uncommitted then
    violation "%s seed %d: %d scripted aborts but only %d uncommitted attempts" wl.name
      seed scripted uncommitted;
  (r, scripted)

let dist_sample ((r : D.report), scripted) =
  {
    committed = r.D.committed;
    scripted;
    failed = dist_uncommitted r - scripted;
    seconds = r.D.elapsed;
    lat = Tally.create ();
  }

(* ---------- the traced round --------------------------------------------- *)

(* A trace is accepted only if it is lossless: no dropped event, no orphaned
   event, no span left open or with a phase unresolved. *)
let lossless_spans what (dump : Trace.dump) =
  if dump.Trace.dropped > 0 then
    violation "%s: the trace dropped %d of %d events" what dump.Trace.dropped
      dump.Trace.emitted;
  let b = Span.Builder.create () in
  List.iter
    (fun (e : Trace.entry) -> Span.Builder.feed_event b ~ts:e.Trace.ts ~dom:e.Trace.dom e.Trace.ev)
    dump.Trace.events;
  let orphans = Span.Builder.orphans b in
  let spans = Span.Builder.finish b in
  if orphans > 0 then violation "%s: %d orphaned trace event(s)" what orphans;
  let unfinished = List.length (List.filter (fun sp -> not (Span.complete sp)) spans) in
  if unfinished > 0 then
    violation "%s: %d span(s) left open or with an unresolved phase" what unfinished;
  spans

let traced ~capacity f =
  Trace.start ~capacity ();
  match f () with
  | r -> (r, Trace.stop ())
  | exception e ->
      ignore (Trace.stop ());
      raise e

(* Per-domain ring capacity that records [run ~txns] whole: a small traced
   pilot measures events per transaction, and the rings get a 2x margin. *)
let ring_capacity ~what ~domains ~txns run =
  let pilot_txns = 20 in
  let _, pilot = traced ~capacity:(1 lsl 20) (fun () -> run ~txns:pilot_txns) in
  ignore (lossless_spans (what ^ " pilot") pilot);
  let per_txn = float_of_int pilot.Trace.emitted /. float_of_int (domains * pilot_txns) in
  int_of_float (2. *. per_txn *. float_of_int txns) + 65_536

(* Run [run ~txns] traced, recorded whole. *)
let traced_round ~what ~domains ~txns run =
  let capacity = ring_capacity ~what ~domains ~txns run in
  let r, dump = traced ~capacity (fun () -> run ~txns) in
  (r, dump, lossless_spans what dump)

(* ---------- the round loop ----------------------------------------------- *)

type lane = {
  step : int -> sample;  (** run one round from the given seed *)
  mutable samples : sample list;
  mutable last : float;  (** wall seconds of the lane's latest round *)
}

let lane step = { step; samples = []; last = 0. }
let total f l = List.fold_left (fun a s -> a + f s) 0 l.samples
let commits = total (fun s -> s.committed)

(* Round r runs every lane on seed [base + r], so both sides of a
   comparison see the same inputs; which lane goes first alternates.  A new
   round starts while some lane still lacks [min_commits], or while the
   round's estimated duration fits before [deadline]. *)
let drive ~base ~deadline lanes =
  let round = ref 0 in
  let need () = List.exists (fun l -> commits l < min_commits) lanes in
  let est () = List.fold_left (fun a l -> a +. l.last) 0. lanes in
  while need () || now () +. est () <= deadline do
    List.iter
      (fun l ->
        let t0 = now () in
        l.samples <- l.step (base + !round) :: l.samples;
        l.last <- now () -. t0)
      (if !round mod 2 = 0 then lanes else List.rev lanes);
    incr round
  done;
  !round

(* ---------- stamps, metrics, the result line ------------------------------ *)

let git_describe = ref "unknown"

let domains wl = match wl.dist with Some d -> d.D.domains | None -> wl.single.P.domains

(* transactions per worker for one round that commits [min_commits] on its
   own (scripted aborts are at most a few percent) *)
let whole wl = ((min_commits * 104 / 100) + domains wl - 1) / domains wl

let stamp wl ~seed ~trace ~rounds =
  Printf.printf
    "stamp: workload=%s seed=%d trace=%d rounds=%d nproc=%d ocaml=%s git=%s\n" wl.name seed
    trace rounds
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !git_describe;
  Printf.printf
    "load: closed loop, no think time, %d worker domain(s) x %d txns per round, %g ms \
     client compute per pace point\n"
    (domains wl) wl.round
    (1000. *. wl.single.P.compute_between);
  print_endline
    "policy (both sides): direct in-memory WAL, every append a flush; lock fast path on; \
     batched footprints off"

let median = Probes.median

type metric = { m_name : string; value : float; unit_ : string; note : string; gated : bool }

(* [gated = false]: printed in the report, left out of the result line *)
let metric ?(note = "") ?(gated = true) m_name unit_ value =
  { m_name; value; unit_; note; gated }

(* a per-layer quantity the workload's driver does not expose *)
let na m_name unit_ = metric m_name unit_ (-1.) ~note:"n/a on this workload (-1)"
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let result_line ~attempted ~failed ms =
  List.iter
    (fun m ->
      Printf.printf "  %-32s %16.6f  %-11s %s\n" m.m_name m.value m.unit_ m.note;
      if not (Float.is_finite m.value) then violation "metric %s was not measured" m.m_name)
    ms;
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool true);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.m_name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]))
                (List.filter (fun m -> m.gated) ms)) );
       ])

(* ---------- host speed ----------------------------------------------------- *)

(* Shared hosts drift: on a 2-core box, compute-free rounds ran about 40%
   faster for minutes at a time, moving ACC and 2PL together (their ratio
   held to 1%).  A fixed CPU-bound loop that never calls the program, row
   copies under a mutex in a table with boxed keys, is timed next to every
   round and every set-up batch.  CPU-bound figures are then scaled to a
   host on which the loop takes [reference_nominal] seconds: populating in
   set-up on every workload, and throughput and latency on workloads without
   client compute (elsewhere the 1 ms compute sleeps set the pace, not the
   CPU). *)
let reference_nominal = 0.006

let reference_loop () =
  let t0 = now () in
  let h = Hashtbl.create 1024 and mu = Mutex.create () and hits = Atomic.make 0 in
  for i = 0 to 19_999 do
    let key = [ `Int (i land 1023); `Str "k" ] in
    Mutex.lock mu;
    (match Hashtbl.find_opt h key with
    | Some row ->
        let row = Array.copy row in
        row.(0) <- row.(0) + 1;
        Hashtbl.replace h key row;
        Atomic.incr hits
    | None -> Hashtbl.replace h key (Array.make 8 i));
    Mutex.unlock mu
  done;
  ignore (Sys.opaque_identity (Atomic.get hits));
  now () -. t0

(* the host's slowness relative to nominal: > 1 on a slow host *)
let host_factor times = median times /. reference_nominal

(* ---------- set-up --------------------------------------------------------- *)

(* The workload's populate plus engine creation, timed in-process.  Returns
   the seconds spent populating and creating the engine, and the populated
   database (partition 0's, when partitioned).  Dist_driver populates and
   creates its partition engines in one call, whose time counts as
   populating: loading four warehouses dominates it. *)
let setup_once wl ~seed =
  match wl.dist with
  | None ->
      let cfg = wl.single in
      let module W = (val P.workload_of cfg : Acc_workload.S) in
      W.reset_global ();
      let t0 = now () in
      let db = W.populate ~seed in
      let t1 = now () in
      let engine =
        Engine.create ~shards:cfg.P.shards ~detector_cadence:cfg.P.detector_cadence
          ~fast_path:cfg.P.fast_path ~wal_policy:(P.wal_policy_of cfg) ~sem:W.semantics db
      in
      let t2 = now () in
      Engine.shutdown engine;
      ((t1 -. t0, t2 -. t1), db)
  | Some d ->
      let t0 = now () in
      let pairs =
        D.make_partitions ~seed ?lock_deadline:d.D.lock_deadline ~partitions:d.D.partitions
          d.D.params
      in
      let dt = now () -. t0 in
      List.iter (fun (_, e) -> Engine.shutdown e) pairs;
      ((dt, 0.), Executor.db (Acc_dist.Partition.engine (fst (List.hd pairs))))

(* The median over 9 batches of the mean set-up time within each batch; a
   batch repeats set-up until 200 ms of wall time have passed, counting the
   engine shutdowns and heap compactions between set-ups, which take several
   times as long as the set-ups themselves.  Engine creation spawns
   two domains, and how soon the OS first runs a new thread makes single
   set-ups bimodal (about 0.3 ms or 3 ms on a 2-core box), so the median of
   single set-ups would land on either mode from run to run.  Populating is
   CPU-bound and is scaled by the host factor; engine creation is mostly
   waiting for new threads to start and is not. *)
let setup wl ~seed =
  let reps = ref 0 and refs = ref [] in
  let batch b =
    refs := reference_loop () :: !refs;
    let t0 = now () in
    let rec go i pop eng =
      if now () -. t0 >= 0.2 then (pop /. float_of_int i, eng /. float_of_int i)
      else begin
        let (p, e), _ = setup_once wl ~seed:(seed + (100 * b) + i) in
        Gc.compact ();
        incr reps;
        go (i + 1) (pop +. p) (eng +. e)
      end
    in
    go 0 0. 0.
  in
  let batches = List.init 9 batch in
  let host = host_factor !refs in
  (median (List.map (fun (p, e) -> (p /. host) +. e) batches), !reps)

(* ---------- end-to-end (--trace 0) ----------------------------------------- *)

let throughput l =
  float_of_int (commits l) /. List.fold_left (fun a s -> a +. s.seconds) 0. l.samples

let latencies l = List.fold_left (fun a s -> Tally.merge a s.lat) (Tally.create ()) l.samples

(* Per committed global transaction of a traced partitioned round: a
   cross-partition transaction spans from its first branch's begin to its
   last branch's end (branches share the gid); a single-partition one is
   its own span. *)
let global_latencies spans =
  let t = Tally.create () in
  let by_gid = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      match (sp.Span.sp_outcome, sp.Span.sp_end, sp.Span.sp_gid) with
      | Span.Committed, Some e, None -> Tally.add t (e -. sp.Span.sp_begin)
      | Span.Committed, Some e, Some g ->
          let b0, e0 =
            Option.value (Hashtbl.find_opt by_gid g) ~default:(infinity, neg_infinity)
          in
          Hashtbl.replace by_gid g (Float.min b0 sp.Span.sp_begin, Float.max e0 e)
      | _ -> ())
    spans;
  Hashtbl.iter (fun _ (b, e) -> Tally.add t (e -. b)) by_gid;
  t

(* The peak major heap of the workload's set-up (populated database plus
   engine), taken first thing in the process.  Set-up runs on one domain, so
   the figure is a function of the seed; the peak over a multi-domain round
   depends on when concurrent major cycles finish and varied by a quarter
   from run to run. *)
let heap_peak_mb wl ~seed =
  ignore (setup_once wl ~seed);
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let end_to_end wl ~seed ~seconds =
  let heap_peak_mb = heap_peak_mb wl ~seed in
  let setup_s, setup_reps = setup wl ~seed in
  let base = seed * 1000 in
  let run_2pl seed ~txns = single_sample (run_single wl P.Baseline ~seed ~txns) in
  let run_acc seed ~txns =
    match wl.dist with
    | None -> single_sample (run_single wl P.Acc ~seed ~txns)
    | Some d -> dist_sample (run_dist wl d ~seed ~txns)
  in
  (* warm-up, checked but not recorded *)
  let warm = max 10 (wl.round / 10) in
  ignore (run_acc (base + 999) ~txns:warm);
  ignore (run_2pl (base + 999) ~txns:warm);
  let refs = ref [] in
  let timed run seed =
    refs := reference_loop () :: !refs;
    run seed
  in
  let acc = lane (timed (run_acc ~txns:wl.round))
  and twopl = lane (timed (run_2pl ~txns:wl.round)) in
  (* Dist_driver records no per-transaction latency: on the partitioned
     workload the ACC percentiles come from a lane of traced rounds, which
     take their turns with the untraced ones across the whole run *)
  let acc_traced =
    Option.map
      (fun d ->
        let what = wl.name ^ " latency round" in
        let run ~txns = run_dist wl d ~seed:(base + 998) ~txns in
        let capacity = ring_capacity ~what ~domains:d.D.domains ~txns:wl.round run in
        lane (fun s ->
            let r, dump =
              traced ~capacity (fun () -> run_dist wl d ~seed:(s + 500) ~txns:wl.round)
            in
            { (dist_sample r) with lat = global_latencies (lossless_spans what dump) }))
      wl.dist
  in
  let lanes = (acc :: Option.to_list acc_traced) @ [ twopl ] in
  let rounds = drive ~base ~deadline:(now () +. seconds) lanes in
  let acc_lat, lat_note =
    match acc_traced with
    | None -> (latencies acc, "")
    | Some l -> (latencies l, " from traced rounds")
  in
  let twopl_lat = latencies twopl in
  let host = host_factor !refs in
  let cpu_bound = wl.single.P.compute_between = 0. && wl.dist = None in
  let tps l = throughput l *. if cpu_bound then host else 1. in
  let sum f = List.fold_left (fun a l -> a + total f l) 0 lanes in
  let unscripted = sum (fun s -> s.committed + s.failed) in
  let failed = sum (fun s -> s.failed) in
  stamp wl ~seed ~trace:0 ~rounds;
  List.iter
    (fun (name, l) ->
      Printf.printf "%s: %d committed; txn/s per round:" name (commits l);
      List.iter
        (fun sm -> Printf.printf " %.1f" (float_of_int sm.committed /. sm.seconds))
        (List.rev l.samples);
      print_newline ())
    ((("acc", acc) :: List.map (fun l -> ("acc traced", l)) (Option.to_list acc_traced))
    @ [ ("2pl", twopl) ]);
  Printf.printf "failed_frac: %.6f frac (%d of %d unscripted attempts did not commit)\n"
    (ratio failed unscripted) failed unscripted;
  Printf.printf
    "host factor: %.4f (reference loop median %.3f ms, nominal %.0f ms); %s\n" host
    (1000. *. median !refs) (1000. *. reference_nominal)
    (if cpu_bound then "txn/s, latency and set-up populating scaled by it"
     else "set-up populating scaled by it, txn/s and latency raw");
  let n t = Printf.sprintf "n=%d" (Tally.count t) in
  let pct t p = 1000. *. Tally.percentile t p /. if cpu_bound then host else 1. in
  (* Printed but not gated: the medians and the p99s.  On tpcc-contended
     the ACC latencies are bimodal (payment about 1.3 ms, new-order about
     14 ms, at a 50/50 mix), so the median falls in the gap between the modes
     and jumps from one to the other with the seed.  The ACC p99 of
     longreader lies on the tail of deadlock victims retried with backoff,
     where latency climbs from about 25 ms at p98 to about 300 ms at p99.5,
     so the few thousand transactions of a run spread it by 0.13-0.21
     (quartile distance over median, ten runs).  On the compute workloads
     the p99 is set by the transactions that a burst of host steal time
     caught: on tpcc-partitioned a run with 5% steal read 54 ms where quiet
     runs read 41-44 ms.  On longreader the 2PL tail sits at about 6.6 ms in
     some runs and 8.6 ms in others.  The gated tail is the ACC p90, which
     has at least 100 samples beyond it and lies inside a mode of the
     latency distribution on every workload (p95 of tpcc-uncontended sits on
     the step from about 1 ms to 2 ms between transaction types, and spread
     by 0.16).  In a closed loop without think time the mean latency is
     fixed by txn/s, which is gated. *)
  let ms =
    [
      metric "acc_txn_s" "txn/s" (tps acc);
      metric "acc_p50_ms" "ms" (pct acc_lat 0.50) ~note:(n acc_lat ^ lat_note) ~gated:false;
      metric "acc_p90_ms" "ms" (pct acc_lat 0.90) ~note:(n acc_lat ^ lat_note);
      metric "acc_p99_ms" "ms" (pct acc_lat 0.99) ~note:(n acc_lat ^ lat_note) ~gated:false;
      metric "twopl_txn_s" "txn/s" (tps twopl);
      metric "twopl_p50_ms" "ms" (pct twopl_lat 0.50) ~note:(n twopl_lat) ~gated:false;
      metric "twopl_p99_ms" "ms" (pct twopl_lat 0.99) ~note:(n twopl_lat) ~gated:false;
      metric "setup_s" "s" setup_s
        ~note:(Printf.sprintf "median of 9 batch means, %d set-ups" setup_reps);
      metric "heap_peak_mb" "MB" heap_peak_mb ~note:"set-up";
    ]
  in
  result_line ~attempted:(sum (fun s -> s.committed + s.failed + s.scripted)) ~failed ms

(* ---------- per layer (--trace 1) ------------------------------------------ *)

type counts = {
  requests : int;
  decisions : int;  (** grants + blocks *)
  passed_2pl : int;  (** grants strict 2PL would have blocked *)
  true_conflicts : int;  (** blocks on an interference-table hit *)
  timeouts : int;  (** lock waits withdrawn at their deadline *)
  victims : int;  (** deadlock victims *)
  step_durs : Tally.t;
  phase_total : Span.phase -> float;
}

let count_trace (dump : Trace.dump) spans =
  let requests = ref 0 and decisions = ref 0 and passed = ref 0 and true_c = ref 0 in
  let timeouts = ref 0 and victims = ref 0 in
  let step_durs = Tally.create () in
  let open_steps = Hashtbl.create 256 in
  List.iter
    (fun (e : Trace.entry) ->
      match e.Trace.ev with
      | Trace.Lock_request _ -> incr requests
      | Trace.Lock_grant { past_2pl; _ } ->
          incr decisions;
          if past_2pl > 0 then incr passed
      | Trace.Lock_block { assertion; _ } ->
          incr decisions;
          if assertion <> None then incr true_c
      | Trace.Timed_out _ -> incr timeouts
      | Trace.Victim _ -> incr victims
      | Trace.Step_begin { txn; step_index; _ } ->
          Hashtbl.replace open_steps (txn, step_index) e.Trace.ts
      | Trace.Step_end { txn; step_index } -> (
          match Hashtbl.find_opt open_steps (txn, step_index) with
          | Some t0 ->
              Hashtbl.remove open_steps (txn, step_index);
              Tally.add step_durs (e.Trace.ts -. t0)
          | None -> ())
      | _ -> ())
    dump.Trace.events;
  let totals = Array.make Span.n_phases 0. in
  List.iter
    (fun sp ->
      List.iter
        (fun (ph, d) -> totals.(Span.phase_index ph) <- totals.(Span.phase_index ph) +. d)
        sp.Span.sp_phases)
    spans;
  {
    requests = !requests;
    decisions = !decisions;
    passed_2pl = !passed;
    true_conflicts = !true_c;
    timeouts = !timeouts;
    victims = !victims;
    step_durs;
    phase_total = (fun ph -> totals.(Span.phase_index ph));
  }

(* what the layers' counters say about one untraced ACC round *)
type untraced = {
  u_committed : int;
  u_tps : float;
  u_latency : float;  (** mean seconds per committed transaction *)
  u_unscripted : int;  (** unscripted attempts that did not commit *)
  u_lost : int;  (** attempts lost to victims, compensations, forced aborts *)
  u_layer : metric list;
}

(* The partition engines are internal to Dist_driver; their lock-wait
   histograms and victim counters are read back from the metrics registry,
   where each engine registers them under its partition label. *)
let partition_rows name =
  List.filter_map
    (fun (row : Registry.row) ->
      if row.Registry.r_name = name && List.mem_assoc "partition" row.Registry.r_labels then
        Some row.Registry.r_sample
      else None)
    (Registry.snapshot ())

let untraced_single wl ~seed =
  let r = run_single wl P.Acc ~seed ~txns:(whole wl) in
  let c = r.P.committed in
  let per x = ratio x c in
  {
    u_committed = c;
    u_tps = r.P.throughput;
    u_latency = Tally.mean r.P.response;
    u_unscripted = unscripted_comps r;
    (* an ACC forced abort is also a compensation; count it once *)
    u_lost = r.P.detector_victims + max r.P.compensations r.P.forced_aborts;
    u_layer =
      [
        metric "lock.fast_hit_frac" "frac" (ratio r.P.fast_path_hits r.P.fast_path_attempts);
        metric "lock.mutex_acqs_per_txn" "count/txn" (per r.P.mutex_acquisitions);
        metric "lock.waits_per_txn" "count/txn" (per r.P.lock_wait_count);
        metric "lock.wait_p99_ms" "ms"
          (if r.P.lock_wait_count = 0 then 0. else 1000. *. r.P.lock_wait_p99)
          ~note:(Printf.sprintf "n=%d" r.P.lock_wait_count);
        metric "parallel.victims_per_txn" "count/txn" (per r.P.detector_victims);
        metric "parallel.peak_queue_depth" "count" (float_of_int r.P.peak_queue_depth);
        metric "wal.flushes_per_txn" "count/txn" (per r.P.wal_flushes);
        metric "dist.cross_frac" "frac" 0.;
        na "dist.cross_commit_frac" "frac";
        na "dist.prepare_hold_p95_ms" "ms";
      ];
  }

let untraced_dist wl d ~seed =
  let r, scripted = run_dist wl d ~seed ~txns:(whole wl) in
  let waits =
    List.fold_left
      (fun acc -> function
        | Registry.S_histogram s -> Snapshot.merge acc s
        | _ -> acc)
      (Histogram.snapshot (Histogram.create ()))
      (partition_rows "acc_engine_lock_wait_seconds")
  in
  let victims =
    List.fold_left
      (fun a -> function Registry.S_counter n -> a + n | _ -> a)
      0
      (partition_rows "acc_detector_victims_total")
  in
  let c = r.D.committed in
  let nwaits = Snapshot.count waits in
  {
    u_committed = c;
    u_tps = r.D.throughput;
    (* closed loop, no think time: each worker is always inside a txn *)
    u_latency = float_of_int d.D.domains *. r.D.elapsed /. float_of_int c;
    u_unscripted = dist_uncommitted r - scripted;
    u_lost = victims + dist_uncommitted r;
    u_layer =
      [
        na "lock.fast_hit_frac" "frac";
        na "lock.mutex_acqs_per_txn" "count/txn";
        metric "lock.waits_per_txn" "count/txn" (ratio nwaits c);
        metric "lock.wait_p99_ms" "ms"
          (if nwaits = 0 then 0. else 1000. *. Snapshot.percentile waits 0.99)
          ~note:(Printf.sprintf "n=%d" nwaits);
        metric "parallel.victims_per_txn" "count/txn" (ratio victims c);
        na "parallel.peak_queue_depth" "count";
        na "wal.flushes_per_txn" "count/txn";
        metric "dist.cross_frac" "frac" r.D.cross_fraction;
        metric "dist.cross_commit_frac" "frac" (ratio r.D.cross_committed r.D.cross_attempted);
        metric "dist.prepare_hold_p95_ms" "ms"
          (1000. *. Tally.percentile r.D.prepare_hold 0.95)
          ~note:(Printf.sprintf "n=%d" (Tally.count r.D.prepare_hold));
      ];
  }

let per_layer wl ~seed =
  let _, db = setup_once wl ~seed in
  let probes = Probes.all ~seed db in
  let base = seed * 1000 in
  let warm = max 10 (wl.round / 10) in
  (* the untraced and the traced round run the same inputs *)
  let u, (t_committed, t_tps, t_cross), dump, spans =
    match wl.dist with
    | None ->
        ignore (run_single wl P.Acc ~seed:(base + 999) ~txns:warm);
        let u = untraced_single wl ~seed:base in
        let r, dump, spans =
          traced_round ~what:(wl.name ^ " traced round") ~domains:(domains wl) ~txns:(whole wl)
            (fun ~txns -> run_single wl P.Acc ~seed:base ~txns)
        in
        (u, (r.P.committed, r.P.throughput, 0), dump, spans)
    | Some d ->
        ignore (run_dist wl d ~seed:(base + 999) ~txns:warm);
        let u = untraced_dist wl d ~seed:base in
        let (r, _), dump, spans =
          traced_round ~what:(wl.name ^ " traced round") ~domains:(domains wl) ~txns:(whole wl)
            (fun ~txns -> run_dist wl d ~seed:base ~txns)
        in
        (u, (r.D.committed, r.D.throughput, r.D.cross_committed), dump, spans)
  in
  let k = count_trace dump spans in
  let per_t x = ratio x t_committed in
  let ms_per_t ph = 1000. *. k.phase_total ph /. float_of_int t_committed in
  let phase_sum = List.fold_left (fun a ph -> a +. k.phase_total ph) 0. Span.all_phases in
  let c = u.u_committed in
  stamp wl ~seed ~trace:1 ~rounds:1;
  Printf.printf
    "samples: untraced acc %d committed; traced acc %d committed, %d events, %d dropped, %d \
     spans, %d victims, %d lock timeouts\n"
    c t_committed dump.Trace.emitted dump.Trace.dropped (List.length spans) k.victims
    k.timeouts;
  let probe name = metric name "ns" (List.assoc name probes) ~note:"median of 15 batches" in
  let layer name = List.find (fun m -> m.m_name = name) u.u_layer in
  let ms =
    [
      metric "lock.requests_per_txn" "count/txn" (per_t k.requests) ~note:"traced";
      layer "lock.fast_hit_frac";
      layer "lock.mutex_acqs_per_txn";
      probe "lock.roundtrip_ns";
      probe "lock.assert_grant_ns";
      layer "lock.waits_per_txn";
      layer "lock.wait_p99_ms";
      metric "lock.wait_ms_per_txn" "ms/txn" (ms_per_t Span.Lock_wait) ~note:"traced";
      layer "parallel.victims_per_txn";
      layer "parallel.peak_queue_depth";
      metric "txn.commit_frac" "frac" (ratio c (c + u.u_lost));
      metric "txn.failed_frac" "frac" (ratio u.u_unscripted (c + u.u_unscripted));
      metric "txn.unexplained_frac" "frac"
        (1. -. (phase_sum /. float_of_int t_committed /. u.u_latency))
        ~note:"traced phase sum vs untraced latency";
      metric "acc_core.steps_per_txn" "count/txn" (per_t (Tally.count k.step_durs))
        ~note:"traced";
      metric "acc_core.step_p50_us" "us" (1e6 *. Tally.percentile k.step_durs 0.50)
        ~note:(Printf.sprintf "traced, n=%d" (Tally.count k.step_durs));
      metric "acc_core.step_p99_us" "us" (1e6 *. Tally.percentile k.step_durs 0.99)
        ~note:(Printf.sprintf "traced, n=%d" (Tally.count k.step_durs));
      probe "acc_core.lookup_ns";
      metric "acc_core.false_conflict_frac" "frac" (ratio k.passed_2pl k.decisions)
        ~note:"traced";
      metric "acc_core.true_conflicts_per_txn" "count/txn" (per_t k.true_conflicts)
        ~note:"traced";
      metric "acc_core.compensations_per_ktxn" "count/ktxn"
        (1000. *. ratio u.u_unscripted c)
        ~note:"unscripted";
      layer "wal.flushes_per_txn";
      metric "wal.append_ms_per_txn" "ms/txn" (ms_per_t Span.Wal_append) ~note:"traced";
      probe "wal.append_sync_ns";
      probe "relation.point_read_ns";
      probe "relation.point_update_ns";
      metric "relation.execute_ms_per_txn" "ms/txn" (ms_per_t Span.Execute) ~note:"traced";
      layer "dist.cross_frac";
      layer "dist.cross_commit_frac";
      layer "dist.prepare_hold_p95_ms";
      (if wl.dist = None then na "dist.decide_ms_per_cross" "ms"
       else
         metric "dist.decide_ms_per_cross" "ms"
           (1000. *. k.phase_total Span.Decide /. float_of_int (max 1 t_cross))
           ~note:"traced");
      metric "obs.trace_overhead_frac" "frac" (1. -. (t_tps /. u.u_tps));
    ]
  in
  let attempts = c + u.u_unscripted in
  result_line ~attempted:attempts ~failed:u.u_unscripted ms

(* ---------- command line --------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads below");
      ("--seed", Arg.Set_int seed, "N seed every input is generated from");
      ("--seconds", Arg.Set_float seconds, "S measuring time (at least one round per side)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--git-describe", Arg.Set_string git_describe, "STR build stamp");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    ("accbench --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
    ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline ("accbench: unknown workload " ^ !workload);
      exit 2
  | Some wl -> (
      if !trace <> 0 && !trace <> 1 then (prerr_endline "accbench: --trace is 0 or 1"; exit 2);
      match
        if !trace = 0 then end_to_end wl ~seed:!seed ~seconds:!seconds
        else per_layer wl ~seed:!seed
      with
      | line -> print_endline line
      | exception Violation msg ->
          flush stdout;
          prerr_endline ("accbench: FAILED: " ^ msg);
          exit 1)
