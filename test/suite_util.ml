(* Tests for the utility library: RNG determinism, statistics, the
   domain pool and the JSON reader. *)

open Sdiq_util

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let da = List.init 10 (fun _ -> Rng.next a) in
  let db = List.init 10 (fun _ -> Rng.next b) in
  Alcotest.(check bool) "different streams" true (da <> db)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  let va = Rng.next a in
  let vb = Rng.next b in
  Alcotest.(check int) "copy replays" va vb

let test_rng_bounds () =
  let t = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int t 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in t 5 9 in
    Alcotest.(check bool) "in inclusive range" true (v >= 5 && v <= 9)
  done

let test_rng_int_invalid () =
  let t = Rng.create 1 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int t 0))

let test_rng_chance_extremes () =
  let t = Rng.create 11 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Rng.chance t 1.0)
  done;
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 always false" false (Rng.chance t 0.0)
  done

let test_rng_shuffle_permutes () =
  let t = Rng.create 5 in
  let arr = Array.init 20 (fun i -> i) in
  let orig = Array.copy arr in
  Rng.shuffle t arr;
  Alcotest.(check int) "same length" (Array.length orig) (Array.length arr);
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check bool) "same elements" true (sorted = orig)

let test_rng_uniformity () =
  (* Coarse sanity: each bucket of ten gets a plausible share. *)
  let t = Rng.create 99 in
  let buckets = Array.make 10 0 in
  let n = 10_000 in
  for _ = 1 to n do
    let v = Rng.int t 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d plausible (%d)" i c)
        true
        (c > n / 20 && c < n / 5))
    buckets

let test_stat_basic () =
  let s = Stat.create () in
  Stat.add s 1.;
  Stat.add s 2.;
  Stat.add s 3.;
  Alcotest.(check int) "count" 3 (Stat.count s);
  Alcotest.(check (float 1e-9)) "mean" 2. (Stat.mean s);
  Alcotest.(check (float 1e-9)) "sum" 6. (Stat.sum s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stat.min_value s);
  Alcotest.(check (float 1e-9)) "max" 3. (Stat.max_value s)

let test_stat_empty () =
  let s = Stat.create () in
  Alcotest.(check int) "count" 0 (Stat.count s);
  Alcotest.(check (float 1e-9)) "mean of empty" 0. (Stat.mean s);
  Alcotest.(check (float 1e-9)) "min of empty" 0. (Stat.min_value s)

let test_stat_reset () =
  let s = Stat.create () in
  Stat.add s 5.;
  Stat.reset s;
  Alcotest.(check int) "count after reset" 0 (Stat.count s);
  Stat.add s 7.;
  Alcotest.(check (float 1e-9)) "mean after reset" 7. (Stat.mean s)

let test_pct_reduction () =
  Alcotest.(check (float 1e-9)) "50%" 50. (Stat.pct_reduction ~base:10. 5.);
  Alcotest.(check (float 1e-9)) "0%" 0. (Stat.pct_reduction ~base:10. 10.);
  Alcotest.(check (float 1e-9)) "negative (increase)" (-10.)
    (Stat.pct_reduction ~base:10. 11.);
  Alcotest.(check (float 1e-9)) "zero base" 0. (Stat.pct_reduction ~base:0. 5.)

let test_mean_of () =
  Alcotest.(check (float 1e-9)) "mean of list" 2. (Stat.mean_of [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "mean of empty list" 0. (Stat.mean_of [])

(* --- Pool: the work-stealing domain pool -------------------------------- *)

exception Boom

let test_pool_empty () =
  let p = Pool.create ~domains:3 () in
  Alcotest.(check (array int)) "map of empty array" [||]
    (Pool.map_array p ~f:(fun x -> x) [||]);
  Alcotest.(check (list int)) "map of empty list" []
    (Pool.map_list p ~f:(fun x -> x) []);
  (* run of an empty task list is a no-op, not an error *)
  Pool.run p []

let test_pool_single_task () =
  let p = Pool.create ~domains:4 () in
  Alcotest.(check (array int)) "one task" [| 49 |]
    (Pool.map_array p ~f:(fun x -> x * x) [| 7 |]);
  let hit = ref false in
  Pool.run p [ (fun () -> hit := true) ];
  Alcotest.(check bool) "thunk ran" true !hit

let test_pool_many_tasks () =
  (* Tasks vastly outnumber domains; results must come back in order. *)
  let p = Pool.create ~domains:4 () in
  let n = 1_000 in
  let input = Array.init n (fun i -> i) in
  let out = Pool.map_array p ~f:(fun i -> (i * 2) + 1) input in
  Alcotest.(check int) "all results" n (Array.length out);
  Array.iteri
    (fun i v -> Alcotest.(check int) "ordered result" ((i * 2) + 1) v)
    out

let test_pool_exception_propagates () =
  let p = Pool.create ~domains:4 () in
  (match
     Pool.map_array p
       ~f:(fun i -> if i = 13 then raise Boom else i)
       (Array.init 100 (fun i -> i))
   with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom -> ());
  (* The pool survives a raising task: all domains were joined. *)
  Alcotest.(check (array int)) "pool still works" [| 1; 2; 3 |]
    (Pool.map_array p ~f:(fun x -> x + 1) [| 0; 1; 2 |])

let test_pool_sizes () =
  Alcotest.(check int) "explicit size" 7 (Pool.domains (Pool.create ~domains:7 ()));
  Alcotest.(check bool) "default size >= 1" true
    (Pool.domains (Pool.create ()) >= 1);
  match Pool.create ~domains:0 () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- JSON ------------------------------------------------------------------ *)

(* Inputs the reader used to accept: [int_of_string "0x1_2f"] took the
   underscore, and [float_of_string] took the three malformed numbers.
   Each must be an [Error] naming the offset where the grammar broke. *)
let test_json_rejects_malformed () =
  List.iter
    (fun (doc, offset) ->
      match Json.parse doc with
      | Ok v ->
        Alcotest.failf "%S parsed as %s, expected an error" doc
          (Json.to_string v)
      | Error msg ->
        let suffix = Printf.sprintf "at offset %d" offset in
        Alcotest.(check bool)
          (Printf.sprintf "%S: %S ends %S" doc msg suffix)
          true
          (String.ends_with ~suffix msg))
    [ ({|"\u1_2f"|}, 4); ("-.5", 1); ("1.", 2); ("01", 1) ]

let test_json_accepts_grammar () =
  List.iter
    (fun (doc, v) ->
      Alcotest.(check bool) doc true (Json.parse doc = Ok v))
    [
      ("0", Json.Num 0.);
      ("-0.5", Json.Num (-0.5));
      ("1e3", Json.Num 1000.);
      ("2.5E-1", Json.Num 0.25);
      ("-10e+1", Json.Num (-100.));
      ({|"\u012F\u0041"|}, Json.Str "\xc4\xafA");
    ]

let gen_json =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.) float in
  let str = string_size ~gen:char (int_range 0 6) in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) finite;
        map (fun n -> Json.Num (float_of_int n)) small_signed_int;
        map (fun s -> Json.Str s) str;
      ]
  in
  sized_size (int_range 0 3)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 1,
                 map (fun l -> Json.Arr l)
                   (list_size (int_range 0 4) (self (n - 1))) );
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_range 0 4) (pair str (self (n - 1)))) );
             ])

(* Printing then parsing a finite document is the identity, and no
   single-byte corruption of a valid document makes the reader raise:
   it answers [Ok] or [Error], so a damaged ledger line or trace is a
   diagnosable failure, never a crash. *)
let prop_json_round_trip_and_total =
  QCheck.Test.make ~count:500
    ~name:"Json: parse (to_string v) = Ok v; mutations never raise"
    (QCheck.make
       ~print:(fun (v, i, c) ->
         Printf.sprintf "%s [%d] <- %C" (Json.to_string v) i c)
       QCheck.Gen.(triple gen_json nat char))
    (fun (v, i, c) ->
      let doc = Json.to_string v in
      let mutated = Bytes.of_string doc in
      Bytes.set mutated (i mod String.length doc) c;
      Json.parse doc = Ok v
      &&
      match Json.parse (Bytes.to_string mutated) with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng copy independent" `Quick test_rng_copy_independent;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng invalid bound" `Quick test_rng_int_invalid;
    Alcotest.test_case "rng chance extremes" `Quick test_rng_chance_extremes;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "stat basic" `Quick test_stat_basic;
    Alcotest.test_case "stat empty" `Quick test_stat_empty;
    Alcotest.test_case "stat reset" `Quick test_stat_reset;
    Alcotest.test_case "pct reduction" `Quick test_pct_reduction;
    Alcotest.test_case "mean of list" `Quick test_mean_of;
    Alcotest.test_case "pool: empty task list" `Quick test_pool_empty;
    Alcotest.test_case "pool: single task" `Quick test_pool_single_task;
    Alcotest.test_case "pool: tasks >> domains" `Quick test_pool_many_tasks;
    Alcotest.test_case "pool: exception propagates, pool survives" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool: sizing" `Quick test_pool_sizes;
    Alcotest.test_case "json: malformed input is an error" `Quick
      test_json_rejects_malformed;
    Alcotest.test_case "json: number grammar and \\u escapes" `Quick
      test_json_accepts_grammar;
    QCheck_alcotest.to_alcotest prop_json_round_trip_and_total;
  ]
