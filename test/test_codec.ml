(* Codec properties and emit-path differentials.

   Group 1 (qcheck): every payload that fits the engine's word budget
   round-trips bit-identically through the packed codec — via the raw
   [encode]/[decode] pair, via the writer/reader cursors over a fixed
   arena region, and via the growable scratch mode the recording emitter
   uses; the wire length always equals [measure]; [encode1] agrees with
   [encode] on one-word frames; and the write of logical word
   [budget + 1] raises the typed [Codec.Width_exceeded] — never a silent
   truncation.

   Group 2: the broadcast fast path.  A flood kernel written with
   [Emit.broadcast1] must be bit-identical — final states and stats — to
   the same kernel sending one [Emit.frame1] per neighbor, on 1, 2 and 4
   domains and under the list-based reference simulator, and with an
   inbox-reading kernel that exercises the lazy in-port fill behind the
   broadcast. *)

open Kdom_graph
open Kdom_congest

(* ------------------------------------------------------------------ *)
(* Generators *)

let seed_gen = QCheck2.Gen.int_bound 10_000

(* Values spanning the whole zigzag range: mostly small (the 1-wire-word
   regime node ids and hop counts live in), sometimes full-width. *)
let word_gen =
  QCheck2.Gen.(
    oneof
      [
        small_signed_int;
        int_range (-32768) 32767;
        int;
        map (fun i -> -i - 1) int;
        oneofl [ 0; 1; -1; max_int; min_int; 0x3FFF; 0x4000; -0x4000 ];
      ])

let payload_gen ~max_len =
  QCheck2.Gen.(list_size (int_range 0 max_len) word_gen)

(* ------------------------------------------------------------------ *)
(* Group 1: round trips *)

let check_roundtrip p =
  let words = Array.length p in
  let cap = 2 * Codec.max_wire_words * max 1 words in
  (* raw array pair *)
  let buf = Bytes.make cap '\xff' in
  let wire = Codec.encode buf ~base:0 p in
  if wire <> Codec.measure p then
    Alcotest.failf "encode wire %d <> measure %d" wire (Codec.measure p);
  if Codec.measured_bits p <> Codec.word_bits * wire then
    Alcotest.fail "measured_bits inconsistent with measure";
  let q = Codec.decode buf ~base:0 ~wire ~words in
  if q <> p then Alcotest.fail "encode/decode round trip differs";
  (* writer/reader cursors over a fixed region, non-zero base *)
  let base = 6 in
  let arena = Bytes.make (base + cap) '\xff' in
  let w = Codec.writer () in
  Codec.attach_writer ~guard:false w arena ~base ~budget:words;
  Array.iter (Codec.put w) p;
  if Codec.words w <> words || Codec.wire w <> wire then
    Alcotest.fail "writer words/wire differ from measure";
  let r = Codec.reader () in
  Codec.attach_reader r arena ~base ~wire ~words;
  Array.iteri
    (fun i v ->
      if Codec.remaining r <> words - i then Alcotest.fail "remaining drifts";
      if Codec.get r <> v then Alcotest.failf "reader word %d differs" i)
    p;
  if Codec.remaining r <> 0 then Alcotest.fail "reader not drained";
  (* scratch mode (the recording emitter's path) *)
  let sw = Codec.writer () in
  Codec.scratch_writer sw ~budget:words;
  Array.iter (Codec.put sw) p;
  let sr = Codec.reader () in
  Codec.attach_reader sr (Codec.writer_bytes sw) ~base:0 ~wire:(Codec.wire sw)
    ~words;
  Array.iter
    (fun v -> if Codec.get sr <> v then Alcotest.fail "scratch trip differs")
    p

let prop_roundtrip =
  QCheck2.Test.make ~name:"codec round trip at the engine budget" ~count:500
    QCheck2.Gen.(pair (int_range 2 1_000_000) (payload_gen ~max_len:12))
    (fun (n, p) ->
      let budget = Engine.default_max_words n in
      let p = Array.of_list p in
      let p =
        if Array.length p > budget then Array.sub p 0 budget else p
      in
      check_roundtrip p;
      true)

let prop_encode1 =
  QCheck2.Test.make ~name:"encode1 = encode on one-word frames" ~count:500
    word_gen (fun v ->
      let cap = 2 * Codec.max_wire_words in
      let a = Bytes.make cap '\x00' and b = Bytes.make cap '\x00' in
      let wa = Codec.encode a ~base:0 [| v |] in
      let wb = Codec.encode1 b ~base:0 v in
      wa = wb && Bytes.sub a 0 (2 * wa) = Bytes.sub b 0 (2 * wb))

let prop_over_budget =
  QCheck2.Test.make ~name:"put of word budget+1 raises Width_exceeded"
    ~count:200
    QCheck2.Gen.(int_range 1 8)
    (fun budget ->
      let w = Codec.writer () in
      Codec.scratch_writer w ~budget;
      for _ = 1 to budget do
        Codec.put w 7
      done;
      match Codec.put w 7 with
      | () -> false
      | exception Codec.Width_exceeded { budget = b; words } ->
        b = budget && words = budget + 1)

(* ------------------------------------------------------------------ *)
(* Group 2: broadcast differential *)

(* Send the one-word frame [x] to every neighbor of [node], either with
   one broadcast or with one [frame1] per neighbor in ascending order. *)
let send_all ~broadcast g ~node em x =
  if broadcast then Engine.Emit.broadcast1 em x
  else Array.iter (fun (u, _) -> Engine.Emit.frame1 em ~dst:u x) (Graph.neighbors g node)

(* The same flood kernel both ways: every node broadcasts the round
   number to all neighbors for [rounds] rounds, then halts. *)
let flood ~broadcast ~rounds : int Engine.ealgorithm =
  {
    Engine.einit = (fun _ _ -> 0);
    estep =
      (fun g ~round ~node _st _ib em ->
        if round > rounds then round
        else begin
          send_all ~broadcast g ~node em round;
          round
        end);
    ehalted = (fun st -> st > rounds);
    ewake = Engine.always;
  }

let flood_emit = flood ~broadcast:true

(* An inbox-consuming variant: fold the lazily filled inbox into a
   digest, then broadcast it — exercises deferred fill + broadcast in
   the same step.  A node halts (negative sentinel state) after folding
   the mail of round [rounds], so no frame is ever sent to a halted
   receiver. *)
let gossip ~broadcast ~rounds : int Engine.ealgorithm =
  {
    Engine.einit = (fun _ v -> v);
    estep =
      (fun g ~round ~node st ib em ->
        let d = ref st in
        for i = 0 to Engine.Inbox.length ib - 1 do
          d := !d + Engine.Inbox.sender ib i + Codec.get (Engine.Inbox.read ib i)
        done;
        let d = !d land 0xFFFFFF in
        if round >= rounds then -d - 1
        else begin
          send_all ~broadcast g ~node em d;
          d
        end);
    ehalted = (fun st -> st < 0);
    ewake = Engine.always;
  }

let check_stats what (a : Engine.stats) (b : Engine.stats) =
  Alcotest.(check int) (what ^ ": rounds") b.rounds a.rounds;
  Alcotest.(check int) (what ^ ": messages") b.messages a.messages;
  Alcotest.(check int) (what ^ ": max_inflight") b.max_inflight a.max_inflight

let graph_families seed =
  let n = 8 + (seed mod 40) in
  [
    ("tree", Generators.random_tree ~rng:(Rng.create seed) n);
    ("gnp", Generators.gnp_connected ~rng:(Rng.create (seed + 1)) ~n ~p:0.2);
  ]

let diff_broadcast what g frame_alg emit_alg =
  let ls, lst = Runtime.run g frame_alg in
  (* emit on one domain *)
  let es, est = Runtime.run ~domains:1 g emit_alg in
  if es <> ls then Alcotest.failf "%s: emit states differ at 1 domain" what;
  check_stats (what ^ "/d1") est lst;
  (* emit on several domains *)
  List.iter
    (fun d ->
      let ss, sst = Runtime.run ~domains:d g emit_alg in
      if ss <> ls then
        Alcotest.failf "%s: emit states differ at %d domains" what d;
      check_stats (Printf.sprintf "%s/d%d" what d) sst lst)
    [ 2; 4 ];
  (* the reference simulator, through its recording emitter *)
  let rs, rst = Runtime.run_reference g emit_alg in
  if rs <> ls then Alcotest.failf "%s: reference states differ" what;
  check_stats (what ^ "/ref") rst lst

let prop_broadcast_flood =
  QCheck2.Test.make ~name:"broadcast flood = frame1 flood (seq/sharded/ref)"
    ~count:25 seed_gen (fun seed ->
      List.iter
        (fun (fam, g) ->
          diff_broadcast ("flood/" ^ fam) g
            (flood ~broadcast:false ~rounds:6)
            (flood_emit ~rounds:6))
        (graph_families seed);
      true)

let prop_broadcast_gossip =
  QCheck2.Test.make ~name:"broadcast gossip = frame1 gossip (lazy inbox)"
    ~count:25 seed_gen (fun seed ->
      List.iter
        (fun (fam, g) ->
          let max_rounds = 64 in
          let ls, lst =
            Engine.exec_emit ~max_rounds (Engine.create g)
              (gossip ~broadcast:false ~rounds:5)
          in
          let es, est =
            Engine.exec_emit ~max_rounds ~domains:1 (Engine.create g)
              (gossip ~broadcast:true ~rounds:5)
          in
          if es <> ls then
            Alcotest.failf "gossip/%s: emit states differ" fam;
          check_stats ("gossip/" ^ fam) est lst;
          List.iter
            (fun d ->
              let ss, sst =
                Engine.exec_emit ~max_rounds ~domains:d (Engine.create g)
                  (gossip ~broadcast:true ~rounds:5)
              in
              if ss <> ls then
                Alcotest.failf "gossip/%s: differs at %d domains" fam d;
              check_stats (Printf.sprintf "gossip/%s/d%d" fam d) sst lst)
            [ 2; 4 ])
        (graph_families seed);
      true)

(* broadcast refuses a zero-word budget with the legacy violation text *)
let test_broadcast_width () =
  let g = Generators.path ~rng:(Rng.create 7) 6 in
  match Runtime.run ~max_words:0 g (flood_emit ~rounds:2) with
  | _ -> Alcotest.fail "expected Congestion_violation"
  | exception Engine.Congestion_violation msg ->
    Alcotest.(check bool)
      "message names the width" true
      (String.length msg > 0
      && String.ends_with ~suffix:"payload of 1 words exceeds 0" msg)

(* ------------------------------------------------------------------ *)
(* Group 3: frame guards and reader hardening.

   The reader faces bytes an adversary may have rewritten; whatever it is
   handed, it must either decode or raise one of the two typed errors
   ([Truncated_frame] / [Corrupt_frame]) — never an out-of-bounds access,
   a stray exception, or (for guarded frames) a silent wrong decode of a
   frame whose CRC does not verify.  The named regressions pin the two
   hardening fixes: the varint shift cap and the frame-span bounds
   check. *)

let guarded_cap words = (2 * Codec.max_wire_words * max 1 words) + 2

let prop_guard_roundtrip =
  QCheck2.Test.make ~name:"guarded frames verify and round-trip" ~count:500
    (payload_gen ~max_len:8) (fun p ->
      let p = Array.of_list p in
      let words = Array.length p in
      let buf = Bytes.make (guarded_cap words) '\xff' in
      let wire = Codec.encode_guarded buf ~base:0 p in
      if wire <> Codec.measure p + Codec.guard_words then
        Alcotest.fail "guarded wire <> measure + guard";
      if not (Codec.verify buf ~base:0 ~wire) then
        Alcotest.fail "fresh guarded frame fails verify";
      if
        not
          (Codec.well_formed buf ~base:0 ~wire:(wire - Codec.guard_words)
             ~words)
      then Alcotest.fail "fresh guarded frame fails well_formed";
      if Codec.decode buf ~base:0 ~wire:(wire - Codec.guard_words) ~words <> p
      then Alcotest.fail "guarded round trip differs";
      (* the incremental writer CRC agrees with the one-shot encoder *)
      let w = Codec.writer () in
      Codec.scratch_writer ~guard:true w ~budget:(max 1 words);
      Array.iter (Codec.put w) p;
      let swire = Codec.seal w in
      swire = wire
      && Bytes.sub (Codec.writer_bytes w) 0 (2 * wire)
         = Bytes.sub buf 0 (2 * wire))

let prop_guard_detects_bit_flips =
  QCheck2.Test.make
    ~name:"any single-bit flip is caught by verify (CRC-16)" ~count:500
    QCheck2.Gen.(pair (payload_gen ~max_len:6) (int_bound 100_000))
    (fun (p, r) ->
      let p = Array.of_list p in
      let buf = Bytes.make (guarded_cap (Array.length p)) '\x00' in
      let wire = Codec.encode_guarded buf ~base:0 p in
      let bit = r mod (16 * wire) in
      let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
      Bytes.set_uint8 buf byte (Bytes.get_uint8 buf byte lxor mask);
      not (Codec.verify buf ~base:0 ~wire))

let prop_guard_encode1 =
  QCheck2.Test.make ~name:"encode1_guarded = encode_guarded on one word"
    ~count:300 word_gen (fun v ->
      let a = Bytes.make (guarded_cap 1) '\x00' in
      let b = Bytes.make (guarded_cap 1) '\x00' in
      let wa = Codec.encode_guarded a ~base:0 [| v |] in
      let wb = Codec.encode1_guarded b ~base:0 v in
      wa = wb && Bytes.sub a 0 (2 * wa) = Bytes.sub b 0 (2 * wb))

(* Any byte soup, any claimed geometry: decoding yields words or a typed
   error.  [words] here intentionally exceeds what [wire] can hold at
   times, so the truncation path is hit alongside the corruption path. *)
let prop_reader_total =
  QCheck2.Test.make
    ~name:"reader on arbitrary bytes: decode or typed error, never a crash"
    ~count:2_000
    QCheck2.Gen.(
      triple (string_size ~gen:char (int_range 0 64)) (int_range 0 40)
        (int_range 0 12))
    (fun (soup, wire, words) ->
      let buf = Bytes.of_string soup in
      let try_decode f =
        match f () with
        | (_ : int array) -> true
        | exception Codec.Truncated_frame _ -> true
        | exception Codec.Corrupt_frame _ -> true
      in
      try_decode (fun () -> Codec.decode buf ~base:0 ~wire ~words)
      && try_decode (fun () ->
             (* the cursor reader walks the same bytes word by word *)
             let r = Codec.reader () in
             Codec.attach_reader r buf ~base:0 ~wire ~words;
             Array.init words (fun _ -> Codec.get r))
      && (* verify/well_formed are total predicates on any bytes *)
      (let _ = Codec.verify buf ~base:0 ~wire in
       let _ = Codec.well_formed buf ~base:0 ~wire ~words in
       true))

(* Truncating a valid frame mid-varint must surface as a typed error —
   or, when the cut lands on a group boundary, as a clean decode of a
   prefix. *)
let prop_truncated_frames =
  QCheck2.Test.make ~name:"truncated valid frames raise typed errors"
    ~count:500
    QCheck2.Gen.(pair (payload_gen ~max_len:6) (int_bound 1_000))
    (fun (p, cut) ->
      let p = Array.of_list p in
      let words = Array.length p in
      let buf = Bytes.make (guarded_cap words) '\x00' in
      let wire = Codec.encode_guarded buf ~base:0 p - Codec.guard_words in
      wire = 0
      ||
      let short = cut mod wire in
      let clipped = Bytes.sub buf 0 (2 * short) in
      match Codec.decode clipped ~base:0 ~wire:short ~words with
      | (_ : int array) -> true (* prefix happened to parse *)
      | exception Codec.Truncated_frame _ -> true
      | exception Codec.Corrupt_frame _ -> true)

(* A guarded span shortened by one word verifies only when its last data
   word happens to equal the CRC-16 of the words before it — about once
   in 2^16 frames for a uniform CRC, so no per-case property can claim it
   never happens.  Instead count it over 2^21 fixed-seed frames of 0-6
   words (about 1.8M of them have a span to shorten) and bound the rate
   at 4 * 2^-16: a guard that let shortened spans through systematically
   would blow far past it. *)
let test_shortened_guarded_spans () =
  let rand = Random.State.make [| 16 |] in
  let buf = Bytes.make (guarded_cap 6) '\x00' in
  let trials = ref 0 and verified = ref 0 in
  for _ = 1 to 1 lsl 21 do
    let p =
      Array.of_list (QCheck2.Gen.generate1 ~rand (payload_gen ~max_len:6))
    in
    let gwire = Codec.encode_guarded buf ~base:0 p in
    if gwire >= 2 then begin
      incr trials;
      if Codec.verify buf ~base:0 ~wire:(gwire - 1) then incr verified
    end
  done;
  let rate = float !verified /. float !trials in
  if rate > 4. /. 65536. then
    Alcotest.failf "%d of %d shortened guarded spans verified (rate %.2e)"
      !verified !trials rate

(* Named regressions for the two hardening fixes. *)

let test_shift_cap_regression () =
  (* five continuation groups followed by a sixth group: more groups than
     any 63-bit zigzag value can canonically need.  Before the shift cap,
     the sixth group was folded in at shift 75 — [lsl] past the int width,
     an unspecified result and a silently wrong decode. *)
  let wire = Codec.max_wire_words + 1 in
  let buf = Bytes.create (2 * wire) in
  for i = 0 to wire - 2 do
    Bytes.set_uint16_le buf (2 * i) 0x8001 (* continuation, payload 1 *)
  done;
  Bytes.set_uint16_le buf (2 * (wire - 1)) 0x0001;
  (match Codec.decode buf ~base:0 ~wire ~words:1 with
  | _ -> Alcotest.fail "over-long varint decoded"
  | exception Codec.Corrupt_frame { wire = w } ->
    Alcotest.(check int) "error names the claimed wire length" wire w);
  (* the same bytes through the cursor reader *)
  let r = Codec.reader () in
  Codec.attach_reader r buf ~base:0 ~wire ~words:1;
  (match Codec.get r with
  | _ -> Alcotest.fail "over-long varint decoded by the reader"
  | exception Codec.Corrupt_frame _ -> ());
  (* exactly max_wire_words groups is the canonical limit and still
     decodes: the cap rejects one-past-canonical, not canonical *)
  let ok = Bytes.create (2 * Codec.max_wire_words) in
  for i = 0 to Codec.max_wire_words - 2 do
    Bytes.set_uint16_le ok (2 * i) 0x8001
  done;
  Bytes.set_uint16_le ok (2 * (Codec.max_wire_words - 1)) 0x0001;
  match Codec.decode ok ~base:0 ~wire:Codec.max_wire_words ~words:1 with
  | _ -> ()
  | exception _ -> Alcotest.fail "canonical-width varint rejected"

let test_bounds_regression () =
  (* a frame whose claimed span runs past the buffer end must raise the
     typed truncation error up front — not read out of bounds *)
  let buf = Bytes.make 4 '\xff' in
  let expect_truncated what f =
    match f () with
    | (_ : int array) -> Alcotest.failf "%s: out-of-span decode returned" what
    | exception Codec.Truncated_frame { wire } ->
      Alcotest.(check int) (what ^ " error carries wire") 8 wire
  in
  expect_truncated "decode" (fun () ->
      Codec.decode buf ~base:0 ~wire:8 ~words:1);
  expect_truncated "decode at base" (fun () ->
      Codec.decode buf ~base:2 ~wire:8 ~words:1);
  expect_truncated "negative base" (fun () ->
      Codec.decode buf ~base:(-2) ~wire:8 ~words:1);
  (* a well-sized span that promises more words than its bytes hold
     exhausts the span mid-frame: also the typed error *)
  let two = Bytes.make 2 '\x00' in
  (match Codec.decode two ~base:0 ~wire:1 ~words:2 with
  | _ -> Alcotest.fail "exhausted span decoded"
  | exception Codec.Truncated_frame _ -> ());
  (* verify never reads past the buffer either: a span larger than the
     bytes is simply not a valid guarded frame *)
  Alcotest.(check bool) "verify rejects over-span" false
    (Codec.verify buf ~base:0 ~wire:8)

(* ------------------------------------------------------------------ *)
(* Group 4: zero allocation on the emit path.

   A steady-state round of a kernel that sends through every emit flavor
   — [frame1]..[frame4] and an explicit [start]/[put]/[commit] — and
   drains its inbox in place with [Inbox.read]/[Codec.get] allocates 0
   minor words, guard off and on, on one domain.  The state is an
   immediate int and the wake hint is [Next], so the sparse frontier, its
   sort and the timer wheel are all on the measured loop.

   Per-round cost is the difference between a long and a short run on
   the same prebuilt engine, divided by the extra rounds: per-run setup
   (state array, emitter closures) cancels.  Both lengths fit the same
   timer-wheel capacity, so its doubling growth cancels too.  The setup
   itself is bounded separately: a repeated run on one engine reuses the
   engine's arenas and shard buffers and allocates O(n), not O(ports). *)

let frames_kernel ~rounds : int Engine.ealgorithm =
  let estep g ~round ~node st ib em =
    let acc = ref st in
    for i = 0 to Engine.Inbox.length ib - 1 do
      let rd = Engine.Inbox.read ib i in
      for _ = 1 to Codec.remaining rd do
        acc := (!acc * 31) + Codec.get rd
      done
    done;
    let d = !acc land 0xFFFF in
    if round >= rounds then -d - 1
    else begin
      let nbrs = Graph.neighbors g node in
      for i = 0 to Array.length nbrs - 1 do
        let u = fst nbrs.(i) in
        match (round + i) mod 5 with
        | 0 -> Engine.Emit.frame1 em ~dst:u d
        | 1 -> Engine.Emit.frame2 em ~dst:u d node
        | 2 -> Engine.Emit.frame3 em ~dst:u d node round
        | 3 -> Engine.Emit.frame4 em ~dst:u d node round i
        | _ ->
          let w = Engine.Emit.start em ~dst:u in
          Codec.put w d;
          Codec.put w (-node);
          Engine.Emit.commit em
      done;
      d
    end
  in
  {
    Engine.einit = (fun _ v -> v);
    estep;
    ehalted = (fun st -> st < 0);
    ewake = (fun _ -> Engine.Next);
  }

let words_per_round ~guard g =
  let e = Engine.create g in
  let run rounds =
    let w0 = Gc.minor_words () in
    ignore (Engine.exec_emit ~guard ~domains:1 e (frames_kernel ~rounds));
    Gc.minor_words () -. w0
  in
  ignore (run 60);
  let short = run 40 and long = run 60 in
  (long -. short) /. 20.

let test_alloc_frames () =
  let g = Generators.grid ~rng:(Rng.create 3) ~rows:12 ~cols:12 in
  List.iter
    (fun guard ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "minor words per round (guard %b, 1 domain)" guard)
        0.
        (words_per_round ~guard g))
    [ false; true ]

(* Every word a run allocates, minor or straight into the major heap (the
   state array of a large graph goes there). *)
let allocated_words f =
  let b0 = Gc.allocated_bytes () in
  f ();
  (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)

(* A second run of a short guarded flood on the same 100x100 grid engine
   allocates its state array and a constant set of closures: at most
   3n + 4096 words, far below the per-port arenas (ports x stride bytes
   per buffer direction) a run that re-allocated them would need. *)
let test_alloc_repeated_exec () =
  let g = Generators.grid ~rng:(Rng.create 9) ~rows:100 ~cols:100 in
  let n = Graph.n g in
  let e = Engine.create g in
  let flood () = ignore (Engine.exec_emit ~guard:true e (flood_emit ~rounds:3)) in
  flood ();
  let words = allocated_words flood in
  let bound = float_of_int ((3 * n) + 4096) in
  if words > bound then
    Alcotest.failf "second exec allocated %.0f words (bound %.0f)" words bound

(* Leader election end to end, setup included: the port keeps it within
   4 minor words per delivered message. *)
let test_alloc_leader () =
  let g = Generators.grid ~rng:(Rng.create 5) ~rows:50 ~cols:50 in
  ignore (Kdom.Leader.elect g);
  let w0 = Gc.minor_words () in
  let r = Kdom.Leader.elect g in
  let words = Gc.minor_words () -. w0 in
  let per_msg = words /. float_of_int r.stats.messages in
  if per_msg > 4. then
    Alcotest.failf "Leader.elect allocates %.2f minor words per message (budget 4)"
      per_msg

(* A node program's minor words per delivered message on a prebuilt
   engine, its state array and [einit] included: the second of two runs,
   so the engine's one-time growth is excluded. *)
let words_per_message g ~max_words a =
  let e = Engine.create g in
  ignore (Engine.exec_emit ~max_words ~domains:1 e a);
  let w0 = Gc.minor_words () in
  let _, (st : Engine.stats) = Engine.exec_emit ~max_words ~domains:1 e a in
  (Gc.minor_words () -. w0) /. float_of_int st.messages

let check_budget what budget per_msg =
  if per_msg > budget then
    Alcotest.failf "%s allocates %.2f minor words per message (budget %g)" what per_msg budget

(* Mutable per-node records: Bfs_tree keeps its acceptance-order children
   list and one [At] per adoption, Simple_mst_congest one [At] per
   schedule checkpoint. *)
let test_alloc_bfs_tree () =
  let g = Generators.grid ~rng:(Rng.create 6) ~rows:100 ~cols:100 in
  check_budget "Bfs_tree" 5.
    (words_per_message g ~max_words:Kdom.Bfs_tree.max_words (Kdom.Bfs_tree.algorithm g ~root:0))

let test_alloc_simple_mst_congest () =
  let g = Generators.preferential_attachment ~rng:(Rng.create 7) ~n:5_000 ~m:2 in
  check_budget "Simple_mst_congest" 10.
    (words_per_message g ~max_words:Kdom.Simple_mst_congest.max_words
       (Kdom.Simple_mst_congest.algorithm g ~k:8))

let () =
  Alcotest.run "codec"
    [
      ( "roundtrip",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_encode1; prop_over_budget ] );
      ( "guard",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_guard_roundtrip;
            prop_guard_detects_bit_flips;
            prop_guard_encode1;
          ] );
      ( "hardening",
        QCheck_alcotest.to_alcotest prop_reader_total
        :: QCheck_alcotest.to_alcotest prop_truncated_frames
        :: [
             Alcotest.test_case "varint shift cap" `Quick
               test_shift_cap_regression;
             Alcotest.test_case "frame-span bounds" `Quick
               test_bounds_regression;
             Alcotest.test_case "shortened guarded spans rarely verify"
               `Quick test_shortened_guarded_spans;
           ] );
      ( "broadcast",
        QCheck_alcotest.to_alcotest prop_broadcast_flood
        :: QCheck_alcotest.to_alcotest prop_broadcast_gossip
        :: [
             Alcotest.test_case "width violation" `Quick test_broadcast_width;
           ] );
      ( "alloc",
        [
          Alcotest.test_case "emit frames allocate nothing" `Quick test_alloc_frames;
          Alcotest.test_case "leader within 4 words per message" `Quick
            test_alloc_leader;
          Alcotest.test_case "bfs_tree within 5 words per message" `Quick
            test_alloc_bfs_tree;
          Alcotest.test_case "simple_mst_congest within 10 words per message" `Quick
            test_alloc_simple_mst_congest;
          Alcotest.test_case "repeated exec reuses engine buffers" `Quick
            test_alloc_repeated_exec;
        ] );
    ]
