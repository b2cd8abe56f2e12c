module A = Aeq_mem.Arena
module P = Aeq_util.Prng
module Dtype = Aeq_storage.Dtype
module Table = Aeq_storage.Table
module Catalog = Aeq_storage.Catalog

let table_names =
  [ "region"; "nation"; "supplier"; "customer"; "part"; "partsupp"; "orders"; "lineitem" ]

let region_names = [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |]

let nation_names =
  [|
    "ALGERIA"; "ARGENTINA"; "BRAZIL"; "CANADA"; "EGYPT"; "ETHIOPIA"; "FRANCE"; "GERMANY";
    "INDIA"; "INDONESIA"; "IRAN"; "IRAQ"; "JAPAN"; "JORDAN"; "KENYA"; "MOROCCO";
    "MOZAMBIQUE"; "PERU"; "CHINA"; "ROMANIA"; "SAUDI ARABIA"; "VIETNAM"; "RUSSIA";
    "UNITED KINGDOM"; "UNITED STATES";
  |]

let nation_region = [| 0; 1; 1; 1; 4; 0; 3; 3; 2; 2; 4; 4; 2; 4; 0; 0; 0; 1; 2; 3; 4; 2; 3; 3; 1 |]

let segments = [| "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "MACHINERY"; "HOUSEHOLD" |]

let priorities = [| "1-URGENT"; "2-HIGH"; "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" |]

let ship_modes = [| "REG AIR"; "AIR"; "RAIL"; "SHIP"; "TRUCK"; "MAIL"; "FOB" |]

let ship_instructs = [| "DELIVER IN PERSON"; "COLLECT COD"; "NONE"; "TAKE BACK RETURN" |]

let containers =
  [| "SM CASE"; "SM BOX"; "MED BAG"; "MED BOX"; "LG CASE"; "LG BOX"; "JUMBO PACK"; "WRAP JAR" |]

let type_syllables_1 = [| "STANDARD"; "SMALL"; "MEDIUM"; "LARGE"; "ECONOMY"; "PROMO" |]

let type_syllables_2 = [| "ANODIZED"; "BURNISHED"; "PLATED"; "POLISHED"; "BRUSHED" |]

let type_syllables_3 = [| "TIN"; "NICKEL"; "BRASS"; "STEEL"; "COPPER" |]

let name_words =
  [|
    "almond"; "antique"; "aquamarine"; "azure"; "beige"; "bisque"; "black"; "blanched";
    "blue"; "blush"; "brown"; "burlywood"; "chartreuse"; "chiffon"; "chocolate"; "coral";
    "cornflower"; "cream"; "cyan"; "dark"; "deep"; "dim"; "dodger"; "drab"; "firebrick";
    "floral"; "forest"; "frosted"; "gainsboro"; "ghost"; "goldenrod"; "green"; "grey";
    "honeydew"; "hot"; "indian"; "ivory"; "khaki"; "lace"; "lavender"; "lawn"; "lemon";
    "light"; "lime"; "linen"; "magenta"; "maroon"; "medium"; "metallic"; "midnight";
    "mint"; "misty"; "moccasin"; "navajo"; "navy"; "olive"; "orange"; "orchid"; "pale";
    "papaya"; "peach"; "peru"; "pink"; "plum"; "powder"; "puff"; "purple"; "red"; "rose";
    "rosy"; "royal"; "saddle"; "salmon"; "sandy"; "seashell"; "sienna"; "sky"; "slate";
    "smoke"; "snow"; "spring"; "steel"; "tan"; "thistle"; "tomato"; "turquoise"; "violet";
    "wheat"; "white"; "yellow";
  |]

(* date range 1992-01-01 .. 1998-12-31 as days since 1970-01-01 *)
let date_lo = 8035

let date_hi = 10591

(* Cells are written straight into each column's arena run
   ([Table.column_run]) through the [Arena.chunk_*] primitives, which
   are inlined even under the dev profile's -opaque, so no per-cell
   int32 is boxed. The writer lives here, not in [Table]: a per-cell
   call into another module is not inlined, and loaded sf 0.03 in
   30–43 ms against 26–28 ms (2-vCPU x86-64 VM, fastest of 11
   loads). *)
let[@inline never] out_of_range (r : Table.run) v =
  invalid_arg
    (Printf.sprintf "Tpch.set_cell: %d is outside the column's declared range %d..%d" v r.lo
       r.hi)

let[@inline] put (r : Table.run) row v =
  if v < r.lo || v > r.hi then out_of_range r v;
  match r.width with
  | 1 -> Bigarray.Array1.set r.chunk (r.offset + row) (Char.unsafe_chr (v land 0xff))
  | 2 -> A.chunk_set_u16 r.chunk (r.offset + (2 * row)) (v land 0xffff)
  | _ -> A.chunk_set_i32 r.chunk (r.offset + (4 * row)) (Int32.of_int v)

let set_cell = put

let[@inline] get (r : Table.run) row =
  match r.width with
  | 1 -> (Char.code (Bigarray.Array1.get r.chunk (r.offset + row)) lxor 0x80) - 0x80
  | 2 -> (A.chunk_get_u16 r.chunk (r.offset + (2 * row)) lxor 0x8000) - 0x8000
  | _ -> Int32.to_int (A.chunk_get_i32 r.chunk (r.offset + (4 * row)))

let[@inline] imin (a : int) b = if a < b then a else b

let[@inline] imax (a : int) b = if a > b then a else b

(* Declared value ranges, the widest the generator below can write. *)
let keys n = (0, n - 1)

let dates = (date_lo, date_hi)

let retailprice_range = (90_000, 90_000 + 9_999 + 999)

let load ?(seed = 20180416L) ~scale_factor catalog =
  let arena = Catalog.arena catalog in
  let alloc = Catalog.allocator catalog in
  let dict = Catalog.dict catalog in
  let rng = P.create seed in
  let code s = Int64.to_int (Aeq_rt.Dict.encode dict s) in
  (* The range of a dictionary column whose codes are all encoded
     before its table is created. *)
  let span codes = (Array.fold_left imin max_int codes, Array.fold_left imax min_int codes) in
  (* The range of a dictionary column whose strings are encoded while
     its table is filled, at most [n] new ones over all of the table's
     columns: every code is one the dictionary already held or one of
     the next [n]. *)
  let fresh n = (0, Aeq_rt.Dict.size dict + n - 1) in
  (* Dictionary codes by draw index. A string is built and encoded
     only the first time its index is drawn; the dictionary assigns
     codes in first-sighting order, so every code is the one that
     encoding the string on each row would give. *)
  let code_table n make =
    let codes = Array.make n (-1) in
    fun k ->
      let c = codes.(k) in
      if c >= 0 then c
      else begin
        let c = code (make k) in
        codes.(k) <- c;
        c
      end
  in
  let n_words = Array.length name_words in
  let sf x = Stdlib.max 1 (int_of_float (float_of_int x *. scale_factor)) in
  let mk name rows schema =
    let t = Table.create alloc ~name ~rows ~schema in
    (t, Array.init (List.length schema) (Table.column_run arena t))
  in
  (* region --------------------------------------------------------- *)
  let region_codes = Array.map code region_names in
  let region, c =
    mk "region" 5
      [ ("r_regionkey", Dtype.Int, keys 5); ("r_name", Dtype.Str, span region_codes) ]
  in
  for i = 0 to 4 do
    put c.(0) i i;
    put c.(1) i region_codes.(i)
  done;
  Catalog.add_table catalog region;
  (* nation --------------------------------------------------------- *)
  let nation_codes = Array.map code nation_names in
  let nation, c =
    mk "nation" 25
      [
        ("n_nationkey", Dtype.Int, keys 25);
        ("n_name", Dtype.Str, span nation_codes);
        ("n_regionkey", Dtype.Int, keys 5);
      ]
  in
  for i = 0 to 24 do
    put c.(0) i i;
    put c.(1) i nation_codes.(i);
    put c.(2) i nation_region.(i)
  done;
  Catalog.add_table catalog nation;
  (* supplier -------------------------------------------------------- *)
  let n_supp = sf 10_000 in
  let acctbal = (-99_999, 999_999) in
  let supplier, c =
    mk "supplier" n_supp
      [
        ("s_suppkey", Dtype.Int, keys n_supp);
        ("s_name", Dtype.Str, fresh n_supp);
        ("s_nationkey", Dtype.Int, keys 25);
        ("s_acctbal", Dtype.Decimal, acctbal);
      ]
  in
  for i = 0 to n_supp - 1 do
    put c.(0) i i;
    put c.(1) i (code (Printf.sprintf "Supplier#%09d" i));
    put c.(2) i (P.int rng 25);
    put c.(3) i (P.int_in rng (fst acctbal) (snd acctbal))
  done;
  Catalog.add_table catalog supplier;
  (* customer -------------------------------------------------------- *)
  let n_cust = sf 150_000 in
  (* customer names are sparse: unique per key would explode the
     dictionary, so they reuse a word pool (word × key mod 1000) *)
  let cust_name =
    code_table (n_words * 1000) (fun k ->
        Printf.sprintf "Customer#%s-%d" name_words.(k / 1000) (k mod 1000))
  in
  let segment = code_table (Array.length segments) (fun k -> segments.(k)) in
  let customer_codes = fresh (imin n_cust (n_words * 1000) + Array.length segments) in
  let customer, c =
    mk "customer" n_cust
      [
        ("c_custkey", Dtype.Int, keys n_cust);
        ("c_name", Dtype.Str, customer_codes);
        ("c_nationkey", Dtype.Int, keys 25);
        ("c_mktsegment", Dtype.Str, customer_codes);
        ("c_acctbal", Dtype.Decimal, acctbal);
      ]
  in
  for i = 0 to n_cust - 1 do
    put c.(0) i i;
    put c.(1) i (cust_name ((P.int rng n_words * 1000) + (i mod 1000)));
    put c.(2) i (P.int rng 25);
    put c.(3) i (segment (P.int rng (Array.length segments)));
    put c.(4) i (P.int_in rng (fst acctbal) (snd acctbal))
  done;
  Catalog.add_table catalog customer;
  (* part ------------------------------------------------------------ *)
  let n_part = sf 200_000 in
  let n1 = Array.length type_syllables_1
  and n2 = Array.length type_syllables_2
  and n3 = Array.length type_syllables_3 in
  let part_name =
    code_table (n_words * n_words) (fun k ->
        name_words.(k / n_words) ^ " " ^ name_words.(k mod n_words))
  in
  let brand =
    code_table 25 (fun k -> Printf.sprintf "Brand#%d%d" (1 + (k / 5)) (1 + (k mod 5)))
  in
  let ptype =
    code_table (n1 * n2 * n3) (fun k ->
        String.concat " "
          [
            type_syllables_1.(k / (n2 * n3));
            type_syllables_2.(k / n3 mod n2);
            type_syllables_3.(k mod n3);
          ])
  in
  let container = code_table (Array.length containers) (fun k -> containers.(k)) in
  let part_codes =
    fresh
      (List.fold_left
         (fun acc n -> acc + imin n_part n)
         0
         [ n_words * n_words; 25; n1 * n2 * n3; Array.length containers ])
  in
  let part, c =
    mk "part" n_part
      [
        ("p_partkey", Dtype.Int, keys n_part);
        ("p_name", Dtype.Str, part_codes);
        ("p_brand", Dtype.Str, part_codes);
        ("p_type", Dtype.Str, part_codes);
        ("p_size", Dtype.Int, (1, 50));
        ("p_container", Dtype.Str, part_codes);
        ("p_retailprice", Dtype.Decimal, retailprice_range);
      ]
  in
  (* Multi-part strings draw their last part first (right-to-left,
     the order OCaml evaluates [pick a ^ " " ^ pick b] in): the golden
     catalog in test_workload.ml pins this draw order. *)
  for i = 0 to n_part - 1 do
    put c.(0) i i;
    let w2 = P.int rng n_words in
    let w1 = P.int rng n_words in
    put c.(1) i (part_name ((w1 * n_words) + w2));
    let b2 = P.int rng 5 in
    let b1 = P.int rng 5 in
    put c.(2) i (brand ((b1 * 5) + b2));
    let t3 = P.int rng n3 in
    let t2 = P.int rng n2 in
    let t1 = P.int rng n1 in
    put c.(3) i (ptype ((((t1 * n2) + t2) * n3) + t3));
    put c.(4) i (1 + P.int rng 50);
    put c.(5) i (container (P.int rng (Array.length containers)));
    put c.(6) i (90_000 + P.int rng 10_000 + (i mod 1000))
  done;
  Catalog.add_table catalog part;
  let retailprice = c.(6) in
  (* partsupp --------------------------------------------------------- *)
  let n_ps = n_part * 4 in
  let partsupp, c =
    mk "partsupp" n_ps
      [
        ("ps_partkey", Dtype.Int, keys n_part);
        ("ps_suppkey", Dtype.Int, keys n_supp);
        ("ps_availqty", Dtype.Int, (1, 9_999));
        ("ps_supplycost", Dtype.Decimal, (100, 99_999));
      ]
  in
  for i = 0 to n_ps - 1 do
    put c.(0) i (i / 4);
    put c.(1) i ((i + (i / 4)) mod n_supp);
    put c.(2) i (1 + P.int rng 9999);
    put c.(3) i (100 + P.int rng 99_900)
  done;
  Catalog.add_table catalog partsupp;
  (* orders ----------------------------------------------------------- *)
  let n_orders = sf 1_500_000 in
  (* encoded P, O, F, in that order: dictionary codes follow
     first-encoding order, and the golden catalog pins these *)
  let status_p = code "P" in
  let status_o = code "O" in
  let status_f = code "F" in
  let status_codes = [| status_f; status_o; status_p |] in
  let priority_codes = Array.map code priorities in
  let orders, c =
    mk "orders" n_orders
      [
        ("o_orderkey", Dtype.Int, keys n_orders);
        ("o_custkey", Dtype.Int, keys n_cust);
        ("o_orderstatus", Dtype.Str, span status_codes);
        ("o_totalprice", Dtype.Decimal, (1_000_00, 1_000_00 + 45_000_000 - 1));
        ("o_orderdate", Dtype.Date, dates);
        ("o_orderpriority", Dtype.Str, span priority_codes);
        ("o_shippriority", Dtype.Int, (0, 0));
      ]
  in
  for i = 0 to n_orders - 1 do
    put c.(0) i i;
    put c.(1) i (P.int rng n_cust);
    put c.(2) i status_codes.(P.int rng 3);
    put c.(3) i (1_000_00 + P.int rng 45_000_000);
    put c.(4) i (P.int_in rng date_lo date_hi);
    put c.(5) i priority_codes.(P.int rng 5);
    put c.(6) i 0
  done;
  Catalog.add_table catalog orders;
  let orderdate = c.(4) in
  (* lineitem ---------------------------------------------------------- *)
  (* pass 1: count lines per order (1..7) *)
  let lines_rng = P.split rng in
  let line_counts = Array.init n_orders (fun _ -> 1 + P.int lines_rng 7) in
  let n_lines = Array.fold_left ( + ) 0 line_counts in
  let flag_r = code "R" in
  let flag_a = code "A" in
  let flag_n = code "N" in
  let mode_codes = Array.map code ship_modes in
  let instruct_codes = Array.map code ship_instructs in
  let lineitem, c =
    mk "lineitem" n_lines
      [
        ("l_orderkey", Dtype.Int, keys n_orders);
        ("l_partkey", Dtype.Int, keys n_part);
        ("l_suppkey", Dtype.Int, keys n_supp);
        ("l_linenumber", Dtype.Int, (1, 7));
        ("l_quantity", Dtype.Decimal, (100, 5_000));
        ("l_extendedprice", Dtype.Decimal, (fst retailprice_range, 50 * snd retailprice_range));
        ("l_discount", Dtype.Decimal, (0, 10));
        ("l_tax", Dtype.Decimal, (0, 8));
        ("l_returnflag", Dtype.Str, span [| flag_r; flag_a; flag_n |]);
        ("l_linestatus", Dtype.Str, span [| status_o; status_f |]);
        ("l_shipdate", Dtype.Date, dates);
        ("l_commitdate", Dtype.Date, (date_lo - 30, date_hi));
        ("l_receiptdate", Dtype.Date, dates);
        ("l_shipinstruct", Dtype.Str, span instruct_codes);
        ("l_shipmode", Dtype.Str, span mode_codes);
      ]
  in
  let row = ref 0 in
  for o = 0 to n_orders - 1 do
    let odate = get orderdate o in
    for ln = 0 to line_counts.(o) - 1 do
      let i = !row in
      incr row;
      let partkey = P.int rng n_part in
      put c.(0) i o;
      put c.(1) i partkey;
      put c.(2) i ((partkey + (ln * 13)) mod n_supp);
      put c.(3) i (ln + 1);
      let qty = 1 + P.int rng 50 in
      put c.(4) i (qty * 100);
      put c.(5) i (qty * get retailprice partkey);
      put c.(6) i (P.int rng 11);
      put c.(7) i (P.int rng 9);
      let shipdate = imin date_hi (odate + 1 + P.int rng 120) in
      (* return flag: R/A for old shipments, N for recent — the skew
         Q1's groups rely on *)
      put c.(8) i
        (if shipdate > date_hi - 700 then flag_n else if P.bool rng then flag_r else flag_a);
      put c.(9) i (if shipdate > date_hi - 700 then status_o else status_f);
      put c.(10) i shipdate;
      put c.(11) i (imin date_hi (shipdate + P.int_in rng (-30) 30));
      put c.(12) i (imin date_hi (shipdate + 1 + P.int rng 30));
      put c.(13) i instruct_codes.(P.int rng (Array.length instruct_codes));
      put c.(14) i mode_codes.(P.int rng (Array.length mode_codes))
    done
  done;
  Catalog.add_table catalog lineitem
