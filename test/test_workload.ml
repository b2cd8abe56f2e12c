(* Sanity tests for the TPC-H-style generator: cardinality scaling,
   referential integrity, value domains, determinism, a golden digest
   of the generated database. *)

module Table = Aeq_storage.Table

let make sf =
  let c = Aeq_storage.Catalog.create () in
  Aeq_workload.Tpch.load ~scale_factor:sf c;
  c

let catalog = lazy (make 0.005)

let tbl name = Aeq_storage.Catalog.table (Lazy.force catalog) name

let rows name = (tbl name).Table.n_rows

let test_cardinalities_scale () =
  Alcotest.(check int) "region" 5 (rows "region");
  Alcotest.(check int) "nation" 25 (rows "nation");
  Alcotest.(check int) "supplier" 50 (rows "supplier");
  Alcotest.(check int) "customer" 750 (rows "customer");
  Alcotest.(check int) "orders" 7500 (rows "orders");
  Alcotest.(check int) "partsupp = 4x part" (4 * rows "part") (rows "partsupp");
  (* lineitem has 1-7 lines per order *)
  Alcotest.(check bool) "lineitem fanout" true
    (rows "lineitem" >= rows "orders" && rows "lineitem" <= 7 * rows "orders")

let arena () = Aeq_storage.Catalog.arena (Lazy.force catalog)

let test_referential_integrity () =
  let a = arena () in
  let li = tbl "lineitem" and orders = tbl "orders" and part = tbl "part" in
  let ok = ref true in
  for r = 0 to li.Table.n_rows - 1 do
    let okey = Int64.to_int (Table.get a li ~col:0 ~row:r) in
    let pkey = Int64.to_int (Table.get a li ~col:1 ~row:r) in
    if okey < 0 || okey >= orders.Table.n_rows then ok := false;
    if pkey < 0 || pkey >= part.Table.n_rows then ok := false
  done;
  Alcotest.(check bool) "lineitem FKs in range" true !ok;
  let cust = tbl "customer" in
  let ok = ref true in
  for r = 0 to orders.Table.n_rows - 1 do
    let ckey = Int64.to_int (Table.get a orders ~col:1 ~row:r) in
    if ckey < 0 || ckey >= cust.Table.n_rows then ok := false
  done;
  Alcotest.(check bool) "orders FKs in range" true !ok

let test_value_domains () =
  let a = arena () in
  let li = tbl "lineitem" in
  let qty_col = Table.column_index li "l_quantity" in
  let disc_col = Table.column_index li "l_discount" in
  let ship_col = Table.column_index li "l_shipdate" in
  let ok = ref true in
  for r = 0 to li.Table.n_rows - 1 do
    let q = Table.get a li ~col:qty_col ~row:r in
    let d = Table.get a li ~col:disc_col ~row:r in
    let s = Int64.to_int (Table.get a li ~col:ship_col ~row:r) in
    (* quantity in [1, 50] (scaled), discount in [0, 0.10] *)
    if Int64.compare q 100L < 0 || Int64.compare q 5000L > 0 then ok := false;
    if Int64.compare d 0L < 0 || Int64.compare d 10L > 0 then ok := false;
    (* ship dates within 1992-01-01 .. 1998-12-31 *)
    if s < 8035 || s > 10591 then ok := false
  done;
  Alcotest.(check bool) "domains" true !ok

let test_returnflag_skew () =
  (* Q1 depends on A/F, N/O, R/F groups existing *)
  let a = arena () in
  let li = tbl "lineitem" in
  let dict = Aeq_storage.Catalog.dict (Lazy.force catalog) in
  let flag_col = Table.column_index li "l_returnflag" in
  let counts = Hashtbl.create 4 in
  for r = 0 to li.Table.n_rows - 1 do
    let f = Aeq_rt.Dict.decode dict (Table.get a li ~col:flag_col ~row:r) in
    Hashtbl.replace counts f (1 + Option.value ~default:0 (Hashtbl.find_opt counts f))
  done;
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " present") true (Hashtbl.mem counts f))
    [ "A"; "N"; "R" ]

let test_deterministic () =
  let c1 = make 0.002 and c2 = make 0.002 in
  let t1 = Aeq_storage.Catalog.table c1 "lineitem"
  and t2 = Aeq_storage.Catalog.table c2 "lineitem" in
  Alcotest.(check int) "same row count" t1.Table.n_rows t2.Table.n_rows;
  let a1 = Aeq_storage.Catalog.arena c1 and a2 = Aeq_storage.Catalog.arena c2 in
  let same = ref true in
  for r = 0 to t1.Table.n_rows - 1 do
    for col = 0 to Array.length t1.Table.columns - 1 do
      if not (Int64.equal (Table.get a1 t1 ~col ~row:r) (Table.get a2 t2 ~col ~row:r)) then
        same := false
    done
  done;
  Alcotest.(check bool) "bit-identical data" true !same

let test_seed_changes_data () =
  let c1 = make 0.002 in
  let c3 = Aeq_storage.Catalog.create () in
  Aeq_workload.Tpch.load ~seed:99L ~scale_factor:0.002 c3;
  let t1 = Aeq_storage.Catalog.table c1 "orders"
  and t3 = Aeq_storage.Catalog.table c3 "orders" in
  let a1 = Aeq_storage.Catalog.arena c1 and a3 = Aeq_storage.Catalog.arena c3 in
  let diff = ref false in
  for r = 0 to Stdlib.min t1.Table.n_rows t3.Table.n_rows - 1 do
    if not (Int64.equal (Table.get a1 t1 ~col:3 ~row:r) (Table.get a3 t3 ~col:3 ~row:r))
    then diff := true
  done;
  Alcotest.(check bool) "different seeds differ" true !diff

(* Every cell of every table, in [table_names] order, then the
   dictionary in code order: a rewrite of the generator that changes
   any value, any draw order or any code assignment changes this. *)
let catalog_digest c =
  let a = Aeq_storage.Catalog.arena c and dict = Aeq_storage.Catalog.dict c in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun name ->
      let t = Aeq_storage.Catalog.table c name in
      Buffer.add_string b name;
      Array.iteri
        (fun col (cd : Table.column) ->
          Buffer.add_string b cd.Table.name;
          for row = 0 to t.Table.n_rows - 1 do
            Buffer.add_int64_le b (Table.get a t ~col ~row)
          done)
        t.Table.columns)
    Aeq_workload.Tpch.table_names;
  for code = 0 to Aeq_rt.Dict.size dict - 1 do
    Buffer.add_string b (Aeq_rt.Dict.decode dict (Int64.of_int code));
    Buffer.add_char b '\000'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_digest () =
  Alcotest.(check string)
    "sf 0.01 catalog digest" "b27637c134c935ecc53918767c5d95f7"
    (catalog_digest (make 0.01))

(* Every cell of [c]'s tables. *)
let cell_count c =
  List.fold_left
    (fun acc name ->
      let t = Aeq_storage.Catalog.table c name in
      acc + (t.Table.n_rows * Array.length t.Table.columns))
    0 Aeq_workload.Tpch.table_names

(* Loading writes cells in place: under one minor word per loaded cell
   (boxing an int64 per cell costs about seven). *)
let test_load_allocation () =
  let c = Aeq_storage.Catalog.create () in
  let w0 = Gc.minor_words () in
  Aeq_workload.Tpch.load ~scale_factor:0.01 c;
  let words = Gc.minor_words () -. w0 in
  let cells = cell_count c in
  let per_cell = words /. float_of_int cells in
  if per_cell >= 1.0 then
    Alcotest.failf "load allocated %.2f minor words per cell (%.0f for %d cells)" per_cell
      words cells

(* Table data lives off the OCaml heap, in cells of 1, 2 or 4 bytes:
   loading TPC-H at sf 0.01 grows the arena by under 3 bytes a cell
   (2.58; 4.39 when every cell was 4 bytes), while the live major
   heap, whose size paces the major GC, grows only by the catalog's
   dictionary and table records (0.34 MB at sf 0.01; 9.8 MB with
   heap-resident chunks). Live words after a full major cycle are
   exact; the heap's size also holds garbage not yet swept, so it
   depends on what ran before. *)
let test_load_off_heap () =
  let live_bytes () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let c = Aeq_storage.Catalog.create () in
  let arena = Aeq_storage.Catalog.arena c in
  let h0 = live_bytes () in
  let r0 = Aeq_mem.Arena.resident_bytes arena in
  Aeq_workload.Tpch.load ~scale_factor:0.01 c;
  let heap = live_bytes () - h0 in
  let resident = Aeq_mem.Arena.resident_bytes arena - r0 in
  ignore (Sys.opaque_identity c);
  let cells = cell_count c in
  if resident >= 3 * cells then
    Alcotest.failf "arena grew %d bytes for %d cells (%.2f a cell); expected under 3 bytes a cell"
      resident cells
      (float_of_int resident /. float_of_int cells);
  if heap >= 1 lsl 20 then
    Alcotest.failf "live heap grew %d bytes while loading %d arena bytes" heap resident

(* Every TPC-H column is stored at the narrowest of 1, 2 and 4 bytes
   whose signed range holds its declared range, and every loaded cell
   lies in that range. l_orderkey (keys 0..orders-1) is 2 bytes at
   sf 0.01 and 4 at sf 0.03, so both sides of the 32k boundary load. *)
let test_column_widths () =
  let fits w (lo, hi) = lo >= -(1 lsl ((8 * w) - 1)) && hi < 1 lsl ((8 * w) - 1) in
  List.iter
    (fun (sf, orderkey_width) ->
      let c = make sf in
      let a = Aeq_storage.Catalog.arena c in
      List.iter
        (fun name ->
          let t = Aeq_storage.Catalog.table c name in
          Array.iteri
            (fun col (cd : Table.column) ->
              let what = Printf.sprintf "sf %g %s" sf cd.Table.name in
              let range = (cd.Table.lo, cd.Table.hi) in
              let narrowest = List.find (fun w -> fits w range) [ 1; 2; 4 ] in
              Alcotest.(check int) (what ^ " width") narrowest cd.Table.width;
              for row = 0 to t.Table.n_rows - 1 do
                let v = Int64.to_int (Table.get a t ~col ~row) in
                if v < cd.Table.lo || v > cd.Table.hi then
                  Alcotest.failf "%s row %d: %d outside %d..%d" what row v cd.Table.lo
                    cd.Table.hi
              done)
            t.Table.columns)
        Aeq_workload.Tpch.table_names;
      let li = Aeq_storage.Catalog.table c "lineitem" in
      Alcotest.(check int)
        (Printf.sprintf "sf %g l_orderkey width" sf)
        orderkey_width (Table.column li "l_orderkey").Table.width)
    [ (0.01, 2); (0.03, 4) ]

(* At each width a column holds the extremes of its declared range,
   read back sign-extended, and refuses the first value past each end
   instead of storing it: a range narrower than its width included. *)
let test_cell_range () =
  let arena = Aeq_mem.Arena.create () in
  let ranges =
    [
      (1, (-0x80, 0x7f));
      (2, (-0x8000, 0x7fff));
      (4, (-0x8000_0000, 0x7fff_ffff));
      (1, (0, 0));
      (2, (-1, 0x80));
      (4, (-40_000, 0x8000));
    ]
  in
  let t =
    Table.create (Aeq_mem.Arena.allocator arena) ~name:"t" ~rows:2
      ~schema:(List.mapi (fun i (_, r) -> (Printf.sprintf "c%d" i, Aeq_storage.Dtype.Int, r)) ranges)
  in
  List.iteri
    (fun col (width, (lo, hi)) ->
      let what = Printf.sprintf "c%d (%d..%d)" col lo hi in
      Alcotest.(check int) (what ^ " width") width t.Table.columns.(col).Table.width;
      let run = Table.column_run arena t col in
      Aeq_workload.Tpch.set_cell run 0 hi;
      Aeq_workload.Tpch.set_cell run 1 lo;
      Alcotest.(check int64) (what ^ " max") (Int64.of_int hi) (Table.get arena t ~col ~row:0);
      Alcotest.(check int64) (what ^ " min") (Int64.of_int lo) (Table.get arena t ~col ~row:1);
      List.iter
        (fun v ->
          match Aeq_workload.Tpch.set_cell run 0 v with
          | () -> Alcotest.failf "%s: stored %d" what v
          | exception Invalid_argument _ -> ())
        [ hi + 1; lo - 1 ];
      Alcotest.(check int64) (what ^ ": refused write left the cell") (Int64.of_int hi)
        (Table.get arena t ~col ~row:0))
    ranges;
  (* a range no cell holds is refused when the table is made *)
  List.iter
    (fun r ->
      match
        Table.create (Aeq_mem.Arena.allocator arena) ~name:"u" ~rows:1
          ~schema:[ ("v", Aeq_storage.Dtype.Int, r) ]
      with
      | _ -> Alcotest.failf "made a column of range %d..%d" (fst r) (snd r)
      | exception Invalid_argument _ -> ())
    [ (0, 1 lsl 31); (-(1 lsl 31) - 1, 0); (1, 0) ]

let () =
  Alcotest.run "workload"
    [
      ( "tpch",
        [
          Alcotest.test_case "cardinalities" `Quick test_cardinalities_scale;
          Alcotest.test_case "referential integrity" `Quick test_referential_integrity;
          Alcotest.test_case "value domains" `Quick test_value_domains;
          Alcotest.test_case "returnflag skew" `Quick test_returnflag_skew;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seeded" `Quick test_seed_changes_data;
          Alcotest.test_case "golden digest" `Quick test_golden_digest;
          Alcotest.test_case "load allocation" `Quick test_load_allocation;
          Alcotest.test_case "load off heap" `Quick test_load_off_heap;
          Alcotest.test_case "cell range" `Quick test_cell_range;
          Alcotest.test_case "column widths" `Quick test_column_widths;
        ] );
    ]
