(* Layer probes: each one times warm calls into a single layer's public
   functions, outside any transaction, and reports the median ns per call
   over [reps] timed batches.  The storage probes run on the populated
   database of the workload being measured, so their cost reflects its
   table sizes and key shapes. *)

module Value = Acc_relation.Value
module Table = Acc_relation.Table
module Database = Acc_relation.Database
module Mode = Acc_lock.Mode
module Lock_request = Acc_lock.Lock_request
module Lock_service = Acc_lock.Lock_service
module Resource_id = Acc_lock.Resource_id
module Sharded_lock_table = Acc_parallel.Sharded_lock_table
module Log = Acc_wal.Log
module Record = Acc_wal.Record
module Prng = Acc_util.Prng

let reps = 15

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [prepare ()] runs untimed before each batch and returns the batch body;
   the body is called [batch] times (warmed by one untimed batch first) *)
let time_ns ?(batch = 20_000) prepare =
  let run_batch () =
    let body = prepare () in
    let t0 = Unix.gettimeofday () in
    for i = 1 to batch do
      body i
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int batch
  in
  ignore (run_batch ());
  median (List.init reps (fun _ -> run_batch ()))

let tuple i = Resource_id.Tuple ("t", [ Value.Int i ])

(* S acquire + release through the sharded table's Lock_service, the path
   every engine lock request takes (fast path on, the shipped default) *)
let lock_roundtrip () =
  let svc = Sharded_lock_table.service (Sharded_lock_table.create Mode.no_semantics) in
  let req = Lock_request.make ~txn:1 Mode.S (tuple 1) in
  time_ns (fun () _ ->
      Lock_service.acquire svc req;
      Lock_service.release svc ~txn:1 Mode.S (tuple 1))

(* X granted past a foreign assertional lock the step does not interfere
   with: TPC-C step 13 against assertion 3, the interference-table lookup on
   the grant path *)
let assert_grant () =
  let svc = Sharded_lock_table.service (Sharded_lock_table.create Acc_tpcc.Txns.semantics) in
  Lock_service.attach svc (Lock_request.make ~txn:99 (Mode.A 3) (tuple 2));
  let req = Lock_request.make ~txn:1 ~step_type:13 Mode.X (tuple 2) in
  time_ns (fun () _ ->
      Lock_service.acquire svc req;
      Lock_service.release svc ~txn:1 Mode.X (tuple 2))

let interference_lookup () =
  let tbl = Acc_tpcc.Txns.interference in
  time_ns ~batch:200_000 (fun () i ->
      ignore
        (Acc_core.Interference.step_interferes tbl ~step_type:(1 + (i land 7))
           ~assertion:(1 + (i land 3))))

(* one Write record appended and forced under the default (direct) policy;
   a fresh log per batch keeps the in-memory log from growing across
   batches *)
let wal_append_sync () =
  let row = [| Value.Int 1; Value.Int 0 |] in
  let write =
    { Record.w_table = "t"; w_key = [ Value.Int 1 ]; w_before = Some row; w_after = Some row }
  in
  time_ns (fun () ->
      let log = Log.create () in
      fun i ->
        ignore (Log.append log (Record.Write { txn = i; write; undo = false }));
        Log.sync log)

(* the largest table of the workload's database, and a seeded sample of
   its existing keys *)
let sample_keys ~seed db =
  let tbl =
    List.fold_left
      (fun best name ->
        let t = Database.table db name in
        match best with
        | Some b when Table.cardinality b >= Table.cardinality t -> best
        | _ -> Some t)
      None (Database.table_names db)
  in
  match tbl with
  | None -> failwith "probes: the workload database has no tables"
  | Some tbl ->
      let all = Array.of_list (Table.fold (fun k _ acc -> k :: acc) tbl []) in
      Array.sort compare all;
      let g = Prng.create ~seed in
      (tbl, Array.init 4096 (fun _ -> all.(Prng.int g (Array.length all))))

let point_read ~seed db =
  let tbl, keys = sample_keys ~seed db in
  time_ns (fun () i -> ignore (Table.get tbl keys.(i land 4095)))

(* an update that rewrites the row unchanged, so the database the probe
   leaves behind still satisfies the workload's invariants *)
let point_update ~seed db =
  let tbl, keys = sample_keys ~seed db in
  time_ns (fun () i -> ignore (Table.update tbl keys.(i land 4095) Fun.id))

let all ~seed db =
  [
    ("lock.roundtrip_ns", lock_roundtrip ());
    ("lock.assert_grant_ns", assert_grant ());
    ("acc_core.lookup_ns", interference_lookup ());
    ("wal.append_sync_ns", wal_append_sync ());
    ("relation.point_read_ns", point_read ~seed db);
    ("relation.point_update_ns", point_update ~seed db);
  ]
