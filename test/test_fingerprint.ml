(* Output fingerprints of the phase-level FastDOM_G path.

   Every output of SimpleMST, the DOM_Partition family, FastDOM_T and
   FastDOM_G is written out in full (fragment and cluster member order,
   tree-edge ids, ledger rows, rounds) and reduced to an MD5 digest.  The
   digests were recorded before the bookkeeping of these stages moved to
   flat arrays, so they pin the orders that local numbering and every
   smallest-id tie-break depend on: a rewrite that changes any of them,
   even without changing a dominating set's validity, fails here.  Two
   more groups pin the cluster geometry built on these outputs and the
   live serving layer's reports, traffic and schedules. *)

open Kdom_graph
open Kdom

let ints b l = List.iter (fun x -> Buffer.add_string b (string_of_int x); Buffer.add_char b ',') l

let ledger b l =
  List.iter (fun (label, r) -> Printf.bprintf b "%s=%d;" label r) (Ledger.entries l)

let fragments b (r : Simple_mst.result) =
  Printf.bprintf b "mst rounds=%d phases=%d\n" r.rounds r.phases;
  ledger b r.ledger;
  List.iter
    (fun (f : Simple_mst.fragment) ->
      Printf.bprintf b "\nroot=%d depth=%d members=" f.root f.depth;
      ints b f.members;
      Buffer.add_string b " edges=";
      ints b (List.map (fun (e : Graph.edge) -> e.id) f.tree_edges))
    r.fragments

let forest_clusters b cs =
  List.iter
    (fun (c : Forest.cluster) ->
      Printf.bprintf b "\ncenter=%d radius=%d members=" c.center c.radius;
      ints b c.members)
    cs

let partition b (p : Cluster.partition) =
  List.iter
    (fun (c : Cluster.t) ->
      Printf.bprintf b "\ncenter=%d members=" c.center;
      ints b c.members)
    p.clusters

let dom_partition b (r : Dom_partition.result) =
  Printf.bprintf b "partition rounds=%d iterations=%d\n" r.rounds r.iterations;
  ledger b r.ledger;
  forest_clusters b r.clusters

let fastdom_tree b (r : Fastdom_tree.result) =
  Printf.bprintf b "fastdom_t rounds=%d\n" r.rounds;
  ledger b r.ledger;
  Buffer.add_string b "\ndominating=";
  ints b r.dominating;
  partition b r.partition;
  forest_clusters b r.cluster_forest

let fastdom_graph b (r : Fastdom_graph.result) =
  Printf.bprintf b "fastdom_g rounds=%d\n" r.rounds;
  ledger b r.ledger;
  Buffer.add_string b "\ndominating=";
  ints b r.dominating;
  partition b r.partition;
  fragments b r.forest

let digest f x =
  let b = Buffer.create 4096 in
  f b x;
  Digest.to_hex (Digest.string (Buffer.contents b))

let instances () =
  [
    ("pa", Generators.preferential_attachment ~rng:(Rng.create 11) ~n:400 ~m:2);
    ("grid", Generators.grid ~rng:(Rng.create 12) ~rows:15 ~cols:20);
    ("rgg", Generators.random_geometric ~rng:(Rng.create 13) ~n:300 ~radius:0.1);
    ("random-tree", Generators.random_tree ~rng:(Rng.create 14) 500);
  ]

let ks = [ 1; 2; 4; 8; 30 ]

(* The host tree of the partition stages: the graph's MST. *)
let mst_tree g = Graph.subgraph_of_edges g (Mst.kruskal g)

(* (case name, computed digest) for one instance and one k. *)
let cases name g ~k =
  let t = mst_tree g in
  let c stage d = (Printf.sprintf "%s k=%d %s" name k stage, d) in
  let open Fastdom_tree in
  [
    c "simple_mst" (digest fragments (Simple_mst.run g ~k));
    c "dom_partition" (digest dom_partition (Dom_partition.run t ~k));
    c "dom_partition_2" (digest dom_partition (Dom_partition.run_2 t ~k));
    c "dom_partition_1" (digest dom_partition (Dom_partition.run_1 t ~k));
    c "fastdom_t" (digest fastdom_tree (run t ~k));
    c "fastdom_t capped" (digest fastdom_tree (run ~variant:Capped t ~k));
    c "fastdom_t quadratic" (digest fastdom_tree (run ~variant:Quadratic t ~k));
    c "fastdom_t optimal_dp" (digest fastdom_tree (run ~stage:Optimal_dp t ~k));
    c "fastdom_g" (digest fastdom_graph (Fastdom_graph.run g ~k));
    c "fastdom_g optimal_dp" (digest fastdom_graph (Fastdom_graph.run ~stage:Optimal_dp g ~k));
  ]

(* kbench dom-pa's own graph and k. *)
let dom_pa_cases () =
  let g = Generators.preferential_attachment ~rng:(Rng.create 1) ~n:60_000 ~m:2 in
  [
    ("dom-pa k=8 simple_mst", digest fragments (Simple_mst.run g ~k:8));
    ("dom-pa k=8 fastdom_g", digest fastdom_graph (Fastdom_graph.run g ~k:8));
  ]

(* Recorded with the list-and-Hashtbl bookkeeping of SimpleMST,
   DOM_Partition and Cluster.induced. *)
let expected =
  [
    ("dom-pa k=8 fastdom_g", "2447cac66f4d230b0751ceefd80ccbde");
    ("dom-pa k=8 simple_mst", "2964f7329745ceb45077f1bf2ce31cf6");
    ("grid k=1 dom_partition", "1259601ec5f724dc553c81720254a8b1");
    ("grid k=1 dom_partition_1", "33e910329547f4ede5b78e6927b0f1a7");
    ("grid k=1 dom_partition_2", "9e26320709cf390ebc91f9d026de3265");
    ("grid k=1 fastdom_g optimal_dp", "090dd8b32ea87989b9b7f42a9e428c66");
    ("grid k=1 fastdom_g", "52c4c0b5362e60df419bfe778e1c140c");
    ("grid k=1 fastdom_t capped", "bf8e9c8d62db7e6df6f21619943779ee");
    ("grid k=1 fastdom_t optimal_dp", "608b4883604c5b534b5fe2d5a0a7f64b");
    ("grid k=1 fastdom_t quadratic", "5d82909d741ab44921bece796d6336d6");
    ("grid k=1 fastdom_t", "76c951ac52cb45333a46c19be4644103");
    ("grid k=1 simple_mst", "13449ff473f1432141a44108a0a6dbe7");
    ("grid k=2 dom_partition", "3bbd12cd2f4fa275329ecdd08d1ca015");
    ("grid k=2 dom_partition_1", "90d3e0e11f90cf25ada01063cdd25f94");
    ("grid k=2 dom_partition_2", "334b31833a4d2a474b8f61254c2c8e2b");
    ("grid k=2 fastdom_g optimal_dp", "edca0634c67a95833ce83507598b206f");
    ("grid k=2 fastdom_g", "4305d45f68e34e02f92f49e09fd02a0b");
    ("grid k=2 fastdom_t capped", "97429fd0bd51997a5526bdff3ce93305");
    ("grid k=2 fastdom_t optimal_dp", "5dca779d7b93f9e5dcffbac18cc4af04");
    ("grid k=2 fastdom_t quadratic", "b6eabf67754d483c992d38f300f05d95");
    ("grid k=2 fastdom_t", "95d8b43304975b1db65fb06a7001ba74");
    ("grid k=2 simple_mst", "43842af37e859ad898cf1763acec2a57");
    ("grid k=30 dom_partition", "778ae086ece26e4b66589fb7010ee9a7");
    ("grid k=30 dom_partition_1", "18eff1bb1abbf66ac3277f56e2dab621");
    ("grid k=30 dom_partition_2", "4c020f087a0f8d6085c7189386914010");
    ("grid k=30 fastdom_g optimal_dp", "dbc50accde959ad8c14a2169a3f6a366");
    ("grid k=30 fastdom_g", "cb0002279f93155ba3661c63829a8abd");
    ("grid k=30 fastdom_t capped", "2d12583dcf34ca02f95b86eba1173690");
    ("grid k=30 fastdom_t optimal_dp", "55866262b80b61dcc5cc01e9c241f858");
    ("grid k=30 fastdom_t quadratic", "2167ff743e7ab267786f55a1392f8d94");
    ("grid k=30 fastdom_t", "694621539447b390813fabfbe07e201c");
    ("grid k=30 simple_mst", "02cb82e8822a54eefc34f7adfa3f4573");
    ("grid k=4 dom_partition", "6f2f97d80657e04a59f649a70b6ecad4");
    ("grid k=4 dom_partition_1", "9487d00a9026b86f2060ad05542ecc6a");
    ("grid k=4 dom_partition_2", "eda6e0f7240778f8eb3c35c7865e50eb");
    ("grid k=4 fastdom_g optimal_dp", "42bb465ecf8ecb5306fd8e7234bc955f");
    ("grid k=4 fastdom_g", "0cda7968559e4513c8f29a692662c2d9");
    ("grid k=4 fastdom_t capped", "fc16da8d9fbee3231f3f483c6e9ae55f");
    ("grid k=4 fastdom_t optimal_dp", "a9d93943411af468f23a6ad3388f3561");
    ("grid k=4 fastdom_t quadratic", "a81b42822df43874adc7ae6abf112e1e");
    ("grid k=4 fastdom_t", "f3afcbac925eab70ada0226e1b4f51df");
    ("grid k=4 simple_mst", "53f6f15c6c6225edfd3ed77e7be1ad49");
    ("grid k=8 dom_partition", "6e6811e0b576c1b52ca305f43177e114");
    ("grid k=8 dom_partition_1", "1cc29bd1cb8d1e9054fe0b75104bec17");
    ("grid k=8 dom_partition_2", "e6692ee8849497dfccd7d22bef69a586");
    ("grid k=8 fastdom_g optimal_dp", "7bc125575fd53d3a2c51db3979d74714");
    ("grid k=8 fastdom_g", "a8bf4e72a5edf44e85ad628258d74ecb");
    ("grid k=8 fastdom_t capped", "5f66eb01ded1ee481dfab7908eb9c6fc");
    ("grid k=8 fastdom_t optimal_dp", "d0b0f7417950b24e0c65de02adbe2532");
    ("grid k=8 fastdom_t quadratic", "10e707a1e16cbf61d9879d610c008818");
    ("grid k=8 fastdom_t", "644103bd1fb4542f9091e25d4c728f0c");
    ("grid k=8 simple_mst", "f422dd719bf04def26e81f1018a9da37");
    ("pa k=1 dom_partition", "33b98bb83f4b8495b3463966d84555ad");
    ("pa k=1 dom_partition_1", "7a9f569fead07903e2496fc55b7aa04f");
    ("pa k=1 dom_partition_2", "e8b0767205d4327f709b099ecdaa4273");
    ("pa k=1 fastdom_g optimal_dp", "fa0fb16338d6c4671f92ab645d4e5601");
    ("pa k=1 fastdom_g", "10cd5b74b92b72285f8b9655ddb86a0b");
    ("pa k=1 fastdom_t capped", "2be6086129e79773bf9e3c74769c58ee");
    ("pa k=1 fastdom_t optimal_dp", "66601ec8c8bdd1d160c1a83a50f6f1a9");
    ("pa k=1 fastdom_t quadratic", "35870d811474f382812e047dd211594a");
    ("pa k=1 fastdom_t", "2f7ec10851832197b0570466fcd0d530");
    ("pa k=1 simple_mst", "2442d623051e44e1ae6116491d0514e3");
    ("pa k=2 dom_partition", "900ea26a46c2641044191b0ffc14399d");
    ("pa k=2 dom_partition_1", "4b873a5a39d1bfe7587420f9a8f8490e");
    ("pa k=2 dom_partition_2", "bb5af961d5057c000e5c9419925fa8f6");
    ("pa k=2 fastdom_g optimal_dp", "2f4c7f91740a77e21e5501f02cafd08f");
    ("pa k=2 fastdom_g", "b182a552fdd94592e6df419829008390");
    ("pa k=2 fastdom_t capped", "d09a5bbd0b964176a42c6cdebaa70c46");
    ("pa k=2 fastdom_t optimal_dp", "73af3a51412dad45640618e2c5b35584");
    ("pa k=2 fastdom_t quadratic", "314c6f185045867afaccae9e8e99d106");
    ("pa k=2 fastdom_t", "0d81cf9dc077b4adf369acebc4ce901b");
    ("pa k=2 simple_mst", "52b850e2e94cd7e854ed7cdf76a06b51");
    ("pa k=30 dom_partition", "913a5ed1a0edc8f97ec495e3b9472c0a");
    ("pa k=30 dom_partition_1", "59a07d5a03757f31c50cdac830ebb32a");
    ("pa k=30 dom_partition_2", "eb34c5ff18635747c208c12cc634553d");
    ("pa k=30 fastdom_g optimal_dp", "b30c4bc669fea6e81d8b11bba14f0e62");
    ("pa k=30 fastdom_g", "37524cd5674d54f9e61b2791d637eaf6");
    ("pa k=30 fastdom_t capped", "1d7ea1b9f4ec030c06f1388c61dccb50");
    ("pa k=30 fastdom_t optimal_dp", "71069f4f608e6627eaee97dce4ed5a6c");
    ("pa k=30 fastdom_t quadratic", "54525d21f8aa2436ca2ed2ff95b120d6");
    ("pa k=30 fastdom_t", "a287c5ca3fd6f6bf108fb8b2bd3744ff");
    ("pa k=30 simple_mst", "725cb1e70d75743f4e931dbe79801c59");
    ("pa k=4 dom_partition", "9dd807022a95aa6715504641e1850b98");
    ("pa k=4 dom_partition_1", "39cca6e8165c40b9182e29f94047f7bb");
    ("pa k=4 dom_partition_2", "0e3e202d28c1e5ca8ed19069d540cb20");
    ("pa k=4 fastdom_g optimal_dp", "392fc85cd614daa95e759b1cccf40af7");
    ("pa k=4 fastdom_g", "bbcab2bd036c1691e8060c753f9e7d1b");
    ("pa k=4 fastdom_t capped", "7baaef39df161ad1460153b5e284d2bd");
    ("pa k=4 fastdom_t optimal_dp", "e9241b80cfb6aea83466bdaad15db10c");
    ("pa k=4 fastdom_t quadratic", "8dc172122d836981413dc02088fd1b2c");
    ("pa k=4 fastdom_t", "a493388df0de50f56f116f9261d9f47c");
    ("pa k=4 simple_mst", "1346b3e2c3ace494a2332bf3b4cbd70e");
    ("pa k=8 dom_partition", "64dfd221c679093680e673f093b2cadb");
    ("pa k=8 dom_partition_1", "45e96ae4cf6ac2879fffc02f7eac2687");
    ("pa k=8 dom_partition_2", "b13a112c0ef3042ee4de7ee1025cf56c");
    ("pa k=8 fastdom_g optimal_dp", "8e36c43bc7d611fa7065f31e03c84263");
    ("pa k=8 fastdom_g", "df4a4b8b566d01b051567c204b856911");
    ("pa k=8 fastdom_t capped", "b9c0f0c0f4736c5935f84466ebfab837");
    ("pa k=8 fastdom_t optimal_dp", "5b80d82dbeaef932a4c03bf0fd5ce4b9");
    ("pa k=8 fastdom_t quadratic", "5ac8fb57a83557e3ff5827a2af35425b");
    ("pa k=8 fastdom_t", "28ea714f8b7b91c42897d29fd12af8dd");
    ("pa k=8 simple_mst", "7d468128d9bd48d59a553518efb84be2");
    ("random-tree k=1 dom_partition", "c320805df4cebbc0045d5a99b22197a7");
    ("random-tree k=1 dom_partition_1", "c0aa7fd88aac6f27833fbd84b55086a6");
    ("random-tree k=1 dom_partition_2", "0d62309eec554827b848f4a7878fd1b4");
    ("random-tree k=1 fastdom_g optimal_dp", "ae93fed5af3c98237ceb9bdcf73bfb4a");
    ("random-tree k=1 fastdom_g", "dbf5c0f695bd43f02b6a950cdbfc04d8");
    ("random-tree k=1 fastdom_t capped", "e17592fd430ffcb715675efdcff65164");
    ("random-tree k=1 fastdom_t optimal_dp", "5c967bc670a0642d0178b637a385bb83");
    ("random-tree k=1 fastdom_t quadratic", "c944049fb05281cf5e0f631e6589e679");
    ("random-tree k=1 fastdom_t", "ac5e52ae6a80f3f4c03e543c533dd133");
    ("random-tree k=1 simple_mst", "f1c02e99badcaf53a7d81453140073d7");
    ("random-tree k=2 dom_partition", "3218fbf40606dc43221075ceb15152b9");
    ("random-tree k=2 dom_partition_1", "ed97d4664f665d4a04a8e490afd32dbe");
    ("random-tree k=2 dom_partition_2", "84712d31a200b07cec2dcc455e23afc3");
    ("random-tree k=2 fastdom_g optimal_dp", "dff45b99bdc8d60ca7c8ceb32e97e8b4");
    ("random-tree k=2 fastdom_g", "69bf1434642384740eb384895c5ff664");
    ("random-tree k=2 fastdom_t capped", "e0dac51ce78ea5b823b7886e8e103ba2");
    ("random-tree k=2 fastdom_t optimal_dp", "fbb493ff586623246afdc9c5052dd330");
    ("random-tree k=2 fastdom_t quadratic", "2b47f8367d83c7a852672569b77b7370");
    ("random-tree k=2 fastdom_t", "3061f8d121d74372c69b2c3c1490cc3a");
    ("random-tree k=2 simple_mst", "be3bfdac0a4281cf441986a736e84e08");
    ("random-tree k=30 dom_partition", "7c5c5b6dc4347db698400b2dc3189b35");
    ("random-tree k=30 dom_partition_1", "e50d3b691721298509fbd578557cc4c6");
    ("random-tree k=30 dom_partition_2", "cdec91c8960e7a19e2c0688e10cec9d4");
    ("random-tree k=30 fastdom_g optimal_dp", "bf755e716e289091d657ab0a15f2a9af");
    ("random-tree k=30 fastdom_g", "ea9fe849ae47dac6bab34d8244bbf10c");
    ("random-tree k=30 fastdom_t capped", "29264ad415b27bae99165b645e952138");
    ("random-tree k=30 fastdom_t optimal_dp", "f02bce7c9c060bcf8d0b0cb9a02b5c01");
    ("random-tree k=30 fastdom_t quadratic", "0fcd4984d203a0f5fd54740b004aed2c");
    ("random-tree k=30 fastdom_t", "fb4fdb2b9e04614ccc06754229c2bfb6");
    ("random-tree k=30 simple_mst", "c0616993bde3ee4f0874d504467f36b7");
    ("random-tree k=4 dom_partition", "014567e7e6cc402e5a114a6cbb6467f6");
    ("random-tree k=4 dom_partition_1", "f6e29408b46451d4fe86e954b1814bc5");
    ("random-tree k=4 dom_partition_2", "c8e8f2d2903615de62a12fdeab0a6e9c");
    ("random-tree k=4 fastdom_g optimal_dp", "8d28a1444c83ab5c780bf7f4953afac1");
    ("random-tree k=4 fastdom_g", "a9026d109cbf5c2368ba54efa0884680");
    ("random-tree k=4 fastdom_t capped", "1750e4b781cd0983615e08f0afc6815d");
    ("random-tree k=4 fastdom_t optimal_dp", "9d1d7c532458f6e96b9158d97a6d699f");
    ("random-tree k=4 fastdom_t quadratic", "f05fa6cddf34345f0d5695ffd02b7726");
    ("random-tree k=4 fastdom_t", "12f7e0ec6a7b2945bfd4b5688a2d4e4c");
    ("random-tree k=4 simple_mst", "28973334d766ba4fdef8d250c0d2c948");
    ("random-tree k=8 dom_partition", "87c27d9e9aa4a3fe800df1d3b7e80ec2");
    ("random-tree k=8 dom_partition_1", "64c4e4128749ff5f6b1c821caba1419a");
    ("random-tree k=8 dom_partition_2", "178e02e914fd2c58c5437990b93d46e1");
    ("random-tree k=8 fastdom_g optimal_dp", "22dbf921ce969b669829c8c654e2ee15");
    ("random-tree k=8 fastdom_g", "eeff998a7a5d92b06ece85ba886a77ec");
    ("random-tree k=8 fastdom_t capped", "c8857288c2f20b768c21d798413351f9");
    ("random-tree k=8 fastdom_t optimal_dp", "6fcaf850b40b43ae74b32062d040c596");
    ("random-tree k=8 fastdom_t quadratic", "d7c246c41ee16ca6b4b46e616326176a");
    ("random-tree k=8 fastdom_t", "6cc7d5fe615749c8af4f69d674a182cf");
    ("random-tree k=8 simple_mst", "a50ab101834d18489f4e997399e37677");
    ("rgg k=1 dom_partition", "3911afe50463a93272fd290e3a180433");
    ("rgg k=1 dom_partition_1", "46990530688a04022b8a8b0c42e5e581");
    ("rgg k=1 dom_partition_2", "02532700b14a263d184e9327cac97d61");
    ("rgg k=1 fastdom_g optimal_dp", "eadb36e3695144e359d86c549f061d79");
    ("rgg k=1 fastdom_g", "9679e90d3db638b17a77b9880ed57c9e");
    ("rgg k=1 fastdom_t capped", "214226bc775e06cea0e5620525cf711a");
    ("rgg k=1 fastdom_t optimal_dp", "1c668d956a0ff2b5bdbae665dc543201");
    ("rgg k=1 fastdom_t quadratic", "602c5042aff9f4010b993d5e28eec161");
    ("rgg k=1 fastdom_t", "3b168aad03218acd0bd8a45435f1e7f0");
    ("rgg k=1 simple_mst", "1ccbc81ef1d3b22810d1a671975e10d3");
    ("rgg k=2 dom_partition", "117f2b6035c26f458a0fc85e62256f45");
    ("rgg k=2 dom_partition_1", "5eb1971fd8f0fe9e67bab3784cfae3f6");
    ("rgg k=2 dom_partition_2", "7d69b7451c5dddc40ba7dc15f5a27a15");
    ("rgg k=2 fastdom_g optimal_dp", "8663d76d0a3e0a57ce1bc1adaa4f3110");
    ("rgg k=2 fastdom_g", "1cb1d3b71e7c564459c8339a4cbb4876");
    ("rgg k=2 fastdom_t capped", "407c48571b909a1013075986e48bef20");
    ("rgg k=2 fastdom_t optimal_dp", "876d01cfa0069869645ad1463e28d740");
    ("rgg k=2 fastdom_t quadratic", "fe40dd229c6f8e385d07a41b4d813198");
    ("rgg k=2 fastdom_t", "131e9bf39aff77f3974aff62dbb1a0a2");
    ("rgg k=2 simple_mst", "3fc3112c568d7f852b286cbe93a16b6e");
    ("rgg k=30 dom_partition", "0b8355825cd4393f4dc35633b0186280");
    ("rgg k=30 dom_partition_1", "a7b8797e4cf7e4fef98d261572cb1b0b");
    ("rgg k=30 dom_partition_2", "29423d0414b713df345f6c36a6d474d1");
    ("rgg k=30 fastdom_g optimal_dp", "48f4abd3bd859421396ac98048a4bcf6");
    ("rgg k=30 fastdom_g", "f780ab44744e97a3f657ff808c6867f5");
    ("rgg k=30 fastdom_t capped", "50a0791a3032d1e3c88988c2f4b71cb1");
    ("rgg k=30 fastdom_t optimal_dp", "218ed3fac88c51e146b702a131844a0a");
    ("rgg k=30 fastdom_t quadratic", "11084fee8a0db5e39a7ca93ab0f8a503");
    ("rgg k=30 fastdom_t", "53a3aab8ee42137e8150a8aeec9dcdb9");
    ("rgg k=30 simple_mst", "bc5df8edd38e051f02a5526c802dc96c");
    ("rgg k=4 dom_partition", "56e479eb7055d180adc4aafb15f1286e");
    ("rgg k=4 dom_partition_1", "7e536aaac1b835291abf7799799d1d2d");
    ("rgg k=4 dom_partition_2", "6847f348b522769e81e4ae2f70a5a4e6");
    ("rgg k=4 fastdom_g optimal_dp", "202ed78d0e6c65fda51d0232adf9a03d");
    ("rgg k=4 fastdom_g", "1415f7e74c83be109ae1fc92f6d76cd6");
    ("rgg k=4 fastdom_t capped", "de3fe8212f2b39cfeb785f9c068aec12");
    ("rgg k=4 fastdom_t optimal_dp", "2ef5518b540b87e231dcf6d588ea5ba3");
    ("rgg k=4 fastdom_t quadratic", "312c782b9026c93706e9a62d681c3a7b");
    ("rgg k=4 fastdom_t", "8b554ee39863dbfadd0b4fe647cb3e7a");
    ("rgg k=4 simple_mst", "f43c4de6a203cb335b3eac1d43817d21");
    ("rgg k=8 dom_partition", "49e167c9b31be5a09aca96ed87d71524");
    ("rgg k=8 dom_partition_1", "1eae5c6e6ef1c2a6fb48a94025279a95");
    ("rgg k=8 dom_partition_2", "36782fa72b9ab44e037a62ff85718b99");
    ("rgg k=8 fastdom_g optimal_dp", "4a3974c5d3d0fcb074e4206be7353e71");
    ("rgg k=8 fastdom_g", "d20792052d1eba5c7f2ed204ca0a5714");
    ("rgg k=8 fastdom_t capped", "55037706b64f088fed5c64a7f647dc21");
    ("rgg k=8 fastdom_t optimal_dp", "3ab4cb2ef26d2e29d04486175ff6f139");
    ("rgg k=8 fastdom_t quadratic", "98de983be471ceb1baf43d0a37f7b2bc");
    ("rgg k=8 fastdom_t", "58574b26ee145aebdc359b91c2e8b314");
    ("rgg k=8 simple_mst", "8daf19426b327a6987f4debf2d67b839");
  ]

(* ------------------------------------------------------------------ *)
(* Cluster geometry: the plans, quotients, hierarchies and dynamic
   rebuilds built on a cluster's restricted BFS tree, the quotient graph
   and the induced subgraph. *)

let plan b (p : Kdom_congest.Repair.plan) =
  Buffer.add_string b "dominator=";
  ints b (Array.to_list p.dominator);
  Buffer.add_string b "\nparent=";
  ints b (Array.to_list p.parent);
  Buffer.add_string b "\ndepth=";
  ints b (Array.to_list p.depth)

let quotient b ((q : Graph.t), witnesses) =
  Printf.bprintf b "n=%d" (Graph.n q);
  Array.iter
    (fun (e : Graph.edge) -> Printf.bprintf b "\n%d:%d-%d/%d" e.id e.u e.v e.w)
    (Graph.edges q);
  List.iter (fun (u, v) -> Printf.bprintf b "\nw%d-%d" u v) witnesses

let hierarchy b (h : Kdom_apps.Hierarchy.t) =
  Array.iter
    (fun (l : Kdom_apps.Hierarchy.level) ->
      Printf.bprintf b "\nlevel k=%d" l.k;
      partition b l.partition;
      Buffer.add_string b "\ncluster_of=";
      ints b (Array.to_list l.cluster_of);
      Buffer.add_string b "\ncenters=";
      ints b (Array.to_list l.centers))
    h.levels;
  Buffer.add_string b "\ntable=";
  ints b (Array.to_list h.table_entries)

let dynamic b ((sc : Dyn_dom.scenario), (r : Kdom_congest.Dynamic.report)) =
  plan b sc.plan;
  Buffer.add_string b "\ncenters0=";
  ints b sc.centers0;
  Printf.bprintf b "\nfastdom_rounds=%d" sc.fastdom_rounds;
  List.iter
    (fun (w : Kdom_congest.Dynamic.window_report) ->
      Printf.bprintf b "\nwindow %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d"
        w.w_checkpoint w.w_events w.w_crashed w.w_departed w.w_arrived w.w_inserted
        w.w_cut w.w_suspicions w.w_reparents w.w_repair_latency w.w_watchdog_fired
        w.w_rebuild_rounds w.w_incremental_rounds w.w_recompute_rounds
        w.w_oracle_failures w.w_hb_frames w.w_repair_frames)
    r.windows;
  Printf.bprintf b "\ntotals %d %d\n" r.total_incremental r.total_recompute;
  plan b r.final_plan;
  Buffer.add_string b "\nalive=";
  ints b (List.map Bool.to_int (Array.to_list r.final_alive));
  Buffer.add_string b "\ndown=";
  List.iter (fun (u, v) -> Printf.bprintf b "%d-%d," u v) r.final_down;
  Buffer.add_string b "\ncenters=";
  ints b r.final_centers

let geometry_cases () =
  let graph_cases =
    List.concat_map
      (fun (name, g) ->
        if name = "random-tree" then []
        else
          List.concat_map
            (fun k ->
              let p = (Fastdom_graph.run g ~k).partition in
              let c stage d = (Printf.sprintf "%s k=%d %s" name k stage, d) in
              [
                c "plan_of_partition" (digest plan (Cluster.plan_of_partition p));
                c "quotient_graph" (digest quotient (Cluster.quotient_graph p));
              ])
            [ 2; 8 ])
      (instances ())
  in
  let tree = List.assoc "random-tree" (instances ()) in
  let tree_plans =
    List.map
      (fun k ->
        let p = Dom_partition.partition tree (Dom_partition.run tree ~k) in
        (Printf.sprintf "random-tree k=%d tree_plan" k, digest plan (Cluster.plan_of_partition p)))
      ks
  in
  let hierarchies =
    List.filter_map
      (fun (name, g) ->
        if name = "grid" || name = "pa" then
          Some
            ( Printf.sprintf "%s ks=2,4,8 hierarchy" name,
              digest hierarchy (Kdom_apps.Hierarchy.build g ~ks:[ 2; 4; 8 ]) )
        else None)
      (instances ())
  in
  let sc =
    Dyn_dom.scenario
      (Generators.grid ~rng:(Rng.create 15) ~rows:12 ~cols:12)
      ~k:2 ~seed:15 ~arrivals:4 ~insertions:4 ~cuts:4 ~crashes:6 ~departs:2
      ~bursts:3 ~quiescence:10
  in
  (* a watchdog bound of 1 makes every cluster deeper than one hop be
     rebuilt, through the induced surviving subgraph *)
  let rebuilt = Dyn_dom.run ~config:{ (Dyn_dom.default_config sc) with bound = 1 } sc in
  (* one local rebuild of the whole grid, every fifth edge down *)
  let local_rebuild =
    let g = Generators.grid ~rng:(Rng.create 16) ~rows:12 ~cols:12 in
    let n = Graph.n g in
    let p =
      Kdom_congest.Repair.
        { dominator = Array.make n (-1); parent = Array.make n (-1); depth = Array.make n 0 }
    in
    let down =
      List.filter_map
        (fun (e : Graph.edge) -> if e.id mod 5 = 0 then Some (e.v, e.u) else None)
        (Array.to_list (Graph.edges g))
    in
    let rounds = Dyn_dom.rebuild_cluster g ~k:2 ~plan:p ~members:(List.init n Fun.id) ~down in
    let rebuilt b () =
      Printf.bprintf b "rounds=%d\n" rounds;
      plan b p
    in
    ("grid 12x12 k=2 rebuild_cluster", digest rebuilt ())
  in
  graph_cases @ tree_plans @ hierarchies
  @ [
      local_rebuild;
      ("grid 12x12 k=2 dyn_dom", digest dynamic (sc, Dyn_dom.run sc));
      ("grid 12x12 k=2 dyn_dom bound=1", digest dynamic (sc, rebuilt));
    ]

(* Recorded before each of these operations was written once. *)
let expected_geometry =
  [
    ("grid 12x12 k=2 dyn_dom bound=1", "1ddda183779edac2884466587681470b");
    ("grid 12x12 k=2 rebuild_cluster", "d0155efeb35a6c3edd2f2c5ebc4bdead");
    ("grid 12x12 k=2 dyn_dom", "d8429ab4ba473536de94c4a011ad9004");
    ("grid k=2 plan_of_partition", "a4d276b3e70b662672915e8515160fe3");
    ("grid k=2 quotient_graph", "0ec440cbb63355527698e10905a2b9b9");
    ("grid k=8 plan_of_partition", "69dceab76b2a8ceb5f140788bf1020a2");
    ("grid k=8 quotient_graph", "fc0fabfc93bd482ac173ddf42812c607");
    ("grid ks=2,4,8 hierarchy", "fdfe86042671232c7c221fcb124945a7");
    ("pa k=2 plan_of_partition", "51e990e3815df8f4f0ac7b9a0d849e0a");
    ("pa k=2 quotient_graph", "1ef1dee42f1b7154a7fa36bbe8a29a5b");
    ("pa k=8 plan_of_partition", "89ea8baf31bd355175c3d2e1c9f28d49");
    ("pa k=8 quotient_graph", "372457a27726e2729c5a00a6c0e73009");
    ("pa ks=2,4,8 hierarchy", "d8da4fcb54b87357246f3b76977f4abb");
    ("random-tree k=1 tree_plan", "f17b9d5216941852217046412d8b5211");
    ("random-tree k=2 tree_plan", "3a29cd63c25f591e75ad5b1979e84379");
    ("random-tree k=30 tree_plan", "c71cccb001b24a9fdfe2927ff2317c38");
    ("random-tree k=4 tree_plan", "c9e4d3c331c9a4ab66bdc867274d85e8");
    ("random-tree k=8 tree_plan", "3702765e0c067409ed8f797117e7c5ed");
    ("rgg k=2 plan_of_partition", "a267983f523773d620dfb03c81315c74");
    ("rgg k=2 quotient_graph", "3533c4d20da01036ebe2024c2584695e");
    ("rgg k=8 plan_of_partition", "e1a6e7fde7ef3d01eb34fc544eb0b177");
    ("rgg k=8 quotient_graph", "7a47d155420d520f25083fc2d6176973");
  ]

(* ------------------------------------------------------------------ *)
(* Serve: the live serving layer.  Every report field is written out by
   name (so a new field moves no digest), with the run's rounds, messages
   and peak in-flight count and the per-round stepped/woken counts of the
   traced run.  Each case runs at 1 and 2 domains. *)

module Serve = Kdom_congest.Serve
module Engine = Kdom_congest.Engine

let serve_report b (r : Serve.report) =
  Buffer.add_string b "outcomes=";
  Array.iter
    (function
      | Serve.Answered { round; hops; answer } -> Printf.bprintf b "A%d/%d/%d," round hops answer
      | Rejected { round; hops } -> Printf.bprintf b "R%d/%d," round hops
      | Lost -> Buffer.add_string b "L,")
    r.outcomes;
  Printf.bprintf b
    "\nanswered=%d rejected=%d lost=%d local=%d retries_used=%d stray=%d frames=%d queue_peak=%d"
    r.answered r.rejected r.lost r.local r.retries_used r.stray r.frames r.queue_peak;
  Buffer.add_string b "\nlatencies=";
  ints b (Array.to_list r.latencies);
  Buffer.add_string b "\nhop_counts=";
  ints b (Array.to_list r.hop_counts);
  Buffer.add_string b "\nedge_load=";
  List.iter (fun (c, e) -> Printf.bprintf b "%d:%d," c e) r.edge_load

let serve_run b (r, (st : Engine.stats), rounds) =
  serve_report b r;
  Printf.bprintf b "\nrounds=%d messages=%d max_inflight=%d\nstepped/woken="
    st.rounds st.messages st.max_inflight;
  List.iter
    (fun (ri : Engine.Sink.round_info) ->
      Printf.bprintf b "%d:%d/%d," ri.round ri.counts.(Engine.Sink.stepped)
        ri.counts.(Engine.Sink.woken))
    rounds

let traced_serve g cfg =
  let tr = Kdom_congest.Trace.create () in
  let states, st = Serve.run ~trace:tr (Engine.create g) cfg in
  (Serve.decode cfg states, st, Kdom_congest.Trace.rounds tr)

let handover b (h : Serve.handover) =
  Buffer.add_string b "phase1 ";
  serve_report b h.phase1;
  Buffer.add_string b "\nretried=";
  ints b (Array.to_list h.retried);
  (match h.phase2 with
  | None -> Buffer.add_string b "\nphase2 none"
  | Some p2 ->
    Buffer.add_string b "\nphase2 ";
    serve_report b p2);
  Buffer.add_string b "\nalive=";
  ints b (List.map Bool.to_int (Array.to_list h.alive));
  Buffer.add_string b "\ndead=";
  List.iter (fun (u, v) -> Printf.bprintf b "%d-%d," u v) h.dead_edges;
  Buffer.add_char b '\n';
  plan b h.healed_plan

(* Set A: retry-, stray- and loss-heavy runs: short retry timers against a
   3,000-request load over 16 rounds. *)
let serve_configs () =
  List.concat_map
    (fun (name, g, seed) ->
      let plan = Cluster.plan_of_partition (Fastdom_graph.run g ~k:3).partition in
      List.concat_map
        (fun (mix_name, mix) ->
          let requests = Workload.generate g plan mix ~seed ~requests:3000 ~window:16 in
          List.map
            (fun (retry_after, retries) ->
              let horizon = 16 + ((retries + 1) * retry_after) + 400 in
              ( Printf.sprintf "serve %s %s retry_after=%d retries=%d" name mix_name
                  retry_after retries,
                g,
                { Serve.plan; requests; horizon; retry_after; retries } ))
            [ (3, 3); (6, 1); (40, 2) ])
        [ ("uniform", Workload.uniform); ("hotspot", Workload.hotspot) ])
    [
      ("grid 30x30", Generators.grid ~rng:(Rng.create 3) ~rows:30 ~cols:30, 3);
      ("gnp 500", Generators.gnp_connected ~rng:(Rng.create 4) ~n:500 ~p:0.02, 4);
      ("random-tree 600", Generators.random_tree ~rng:(Rng.create 5) 600, 5);
    ]

(* Set B: kbench's serve-uniform and serve-hotspot inputs at smoke size. *)
let kbench_serve mix seed =
  let side = 24 and requests = 1_000 and window = 32 in
  let rng = Rng.create seed in
  let g = Generators.grid ~rng:(Rng.split rng) ~rows:side ~cols:side in
  let plan = Cluster.plan_of_partition (Fastdom_graph.run g ~k:4).partition in
  let rec draw () =
    let reqs = Workload.generate g plan mix ~seed:(Rng.int rng 1_000_000_000) ~requests ~window in
    let per = Array.make (Graph.n g) 0 in
    Array.iter (fun (r : Serve.request) -> per.(r.origin) <- per.(r.origin) + 1) reqs;
    let hottest = ref 0 in
    Array.iteri (fun v c -> if c > per.(!hottest) then hottest := v) per;
    if mix.Workload.zipf > 0. && plan.depth.(!hottest) = 0 then draw ()
    else (reqs, per.(!hottest))
  in
  let requests, batch = draw () in
  let dmax = Array.fold_left max 0 plan.depth in
  let retry_after = (4 * dmax) + 8 + batch and retries = 2 in
  let horizon = window + batch + (4 * dmax) + ((retries + 1) * retry_after) + 32 in
  (g, { Serve.plan; requests; horizon; retry_after; retries })

(* test_serve's crash-mid-traffic run and a squall storm over serving. *)
let serve_handover () =
  let g = Generators.gnp_connected ~rng:(Rng.create (0x5e7e + 4)) ~n:160 ~p:0.05 in
  let k = 2 in
  let plan = Cluster.plan_of_partition (Fastdom_graph.run g ~k).partition in
  let requests = Workload.generate g plan Workload.uniform ~seed:11 ~requests:250 ~window:12 in
  let dmax = Array.fold_left max 0 plan.depth in
  let retry_after = (4 * dmax) + (2 * Array.length requests) + 8 in
  let cfg = { Serve.plan; requests; horizon = 12 + (2 * retry_after) + 8; retry_after; retries = 1 } in
  let churn = Kdom_congest.Faults.random_churn g ~seed:5 ~crashes:4 ~edge_cuts:0 ~last:10 in
  let beta = max 2 (k + 1) in
  let settle = 12 + (2 * ((2 * beta) + (3 * dmax) + 12)) + Graph.n g in
  Serve.with_repair ~beta ~lease:2 ~settle (Engine.create g) cfg ~churn

let serve_storm () =
  let g = Generators.gnp_connected ~rng:(Rng.create 21) ~n:120 ~p:0.06 in
  let plan = Cluster.plan_of_partition (Fastdom_graph.run g ~k:2).partition in
  let requests = Workload.generate g plan Workload.hotspot ~seed:22 ~requests:400 ~window:10 in
  let dmax = 1 + Array.fold_left max 0 plan.depth in
  let retry_after = (4 * dmax) + 8 in
  let cfg = { Serve.plan; requests; horizon = 10 + (3 * retry_after) + 400; retry_after; retries = 2 } in
  let v, h = Kdom_congest.Chaos.run_serve ~seed:23 ~storm:Kdom_congest.Chaos.squall g cfg in
  (v, h)

let storm b ((v : Kdom_congest.Chaos.verdict), h) =
  Printf.bprintf b "pulses=%d frames=%d dropped=%d corrupted=%d crashed=%d injected=%d detected=%d truncated=%d\n"
    v.v_pulses v.v_frames v.v_dropped v.v_corrupted v.v_crashed v.v_injected v.v_detected
    v.v_truncated;
  handover b h

let serve_cases () =
  List.concat_map
    (fun d ->
      let at what f x = (Printf.sprintf "%s d=%d" what d, Engine.with_domains d (fun () -> digest f (x ()))) in
      List.map
        (fun (name, g, cfg) -> at name serve_run (fun () -> traced_serve g cfg))
        (serve_configs ())
      @ List.concat_map
          (fun seed ->
            List.map
              (fun (mix_name, mix) ->
                at (Printf.sprintf "kbench serve-%s seed=%d smoke" mix_name seed) serve_run
                  (fun () ->
                    let g, cfg = kbench_serve mix seed in
                    traced_serve g cfg))
              [ ("uniform", Workload.uniform); ("hotspot", Workload.hotspot) ])
          [ 1; 2 ]
      @ [
          at "serve crash handover" handover serve_handover;
          at "serve squall storm" storm serve_storm;
        ])
    [ 1; 2 ]

(* Recorded with the Hashtbl-and-Queue node program. *)
let expected_serve =
  [
    ("kbench serve-hotspot seed=1 smoke d=1", "4341cd9704e06d44f20ee37062b691db");
    ("kbench serve-hotspot seed=1 smoke d=2", "4341cd9704e06d44f20ee37062b691db");
    ("kbench serve-hotspot seed=2 smoke d=1", "c8bf07d43812f9b3c2dbf475964b16ae");
    ("kbench serve-hotspot seed=2 smoke d=2", "c8bf07d43812f9b3c2dbf475964b16ae");
    ("kbench serve-uniform seed=1 smoke d=1", "fa7532cb6529d50b0b9d95322aa3f9d4");
    ("kbench serve-uniform seed=1 smoke d=2", "fa7532cb6529d50b0b9d95322aa3f9d4");
    ("kbench serve-uniform seed=2 smoke d=1", "76ee353e0100450b9af8e64aba715dbc");
    ("kbench serve-uniform seed=2 smoke d=2", "76ee353e0100450b9af8e64aba715dbc");
    ("serve crash handover d=1", "0b8e4a96be45553d796d4559c81118eb");
    ("serve crash handover d=2", "0b8e4a96be45553d796d4559c81118eb");
    ("serve gnp 500 hotspot retry_after=3 retries=3 d=1", "150928d6bf5001dee8c0597592268ab8");
    ("serve gnp 500 hotspot retry_after=3 retries=3 d=2", "150928d6bf5001dee8c0597592268ab8");
    ("serve gnp 500 hotspot retry_after=40 retries=2 d=1", "7c5c2e31bf05aa6e387277dea9e826c7");
    ("serve gnp 500 hotspot retry_after=40 retries=2 d=2", "7c5c2e31bf05aa6e387277dea9e826c7");
    ("serve gnp 500 hotspot retry_after=6 retries=1 d=1", "abca3fd568ba0a132a2d267fc6e4a9e2");
    ("serve gnp 500 hotspot retry_after=6 retries=1 d=2", "abca3fd568ba0a132a2d267fc6e4a9e2");
    ("serve gnp 500 uniform retry_after=3 retries=3 d=1", "100bef80b912226ecb9312382e233c2c");
    ("serve gnp 500 uniform retry_after=3 retries=3 d=2", "100bef80b912226ecb9312382e233c2c");
    ("serve gnp 500 uniform retry_after=40 retries=2 d=1", "a5594914967d0375964b7fcd302b28bb");
    ("serve gnp 500 uniform retry_after=40 retries=2 d=2", "a5594914967d0375964b7fcd302b28bb");
    ("serve gnp 500 uniform retry_after=6 retries=1 d=1", "318a2b0097833fdde74953c1caa956f2");
    ("serve gnp 500 uniform retry_after=6 retries=1 d=2", "318a2b0097833fdde74953c1caa956f2");
    ("serve grid 30x30 hotspot retry_after=3 retries=3 d=1", "50be75f3fa4a8f3809d9ddcbabef9811");
    ("serve grid 30x30 hotspot retry_after=3 retries=3 d=2", "50be75f3fa4a8f3809d9ddcbabef9811");
    ("serve grid 30x30 hotspot retry_after=40 retries=2 d=1", "2d0e2dc05019edba69bc4b64874d1a19");
    ("serve grid 30x30 hotspot retry_after=40 retries=2 d=2", "2d0e2dc05019edba69bc4b64874d1a19");
    ("serve grid 30x30 hotspot retry_after=6 retries=1 d=1", "56496e32b5beaf548fea508fbf11e3f1");
    ("serve grid 30x30 hotspot retry_after=6 retries=1 d=2", "56496e32b5beaf548fea508fbf11e3f1");
    ("serve grid 30x30 uniform retry_after=3 retries=3 d=1", "572999a3ac143ce7d35a699d8006244c");
    ("serve grid 30x30 uniform retry_after=3 retries=3 d=2", "572999a3ac143ce7d35a699d8006244c");
    ("serve grid 30x30 uniform retry_after=40 retries=2 d=1", "dccb1641c0aa5d54da84923516b9bb1e");
    ("serve grid 30x30 uniform retry_after=40 retries=2 d=2", "dccb1641c0aa5d54da84923516b9bb1e");
    ("serve grid 30x30 uniform retry_after=6 retries=1 d=1", "26c57525d5ace55bba26d73f4ac58aed");
    ("serve grid 30x30 uniform retry_after=6 retries=1 d=2", "26c57525d5ace55bba26d73f4ac58aed");
    ("serve random-tree 600 hotspot retry_after=3 retries=3 d=1", "08ddd0fc24b7813d606f1c8c25ea6528");
    ("serve random-tree 600 hotspot retry_after=3 retries=3 d=2", "08ddd0fc24b7813d606f1c8c25ea6528");
    ("serve random-tree 600 hotspot retry_after=40 retries=2 d=1", "ee7cb4b7243ac7c8c5488523c3410d01");
    ("serve random-tree 600 hotspot retry_after=40 retries=2 d=2", "ee7cb4b7243ac7c8c5488523c3410d01");
    ("serve random-tree 600 hotspot retry_after=6 retries=1 d=1", "269e121a95aeb73a9c83d5cbee0bf015");
    ("serve random-tree 600 hotspot retry_after=6 retries=1 d=2", "269e121a95aeb73a9c83d5cbee0bf015");
    ("serve random-tree 600 uniform retry_after=3 retries=3 d=1", "45fb9d709b1b26428b81d42798500a58");
    ("serve random-tree 600 uniform retry_after=3 retries=3 d=2", "45fb9d709b1b26428b81d42798500a58");
    ("serve random-tree 600 uniform retry_after=40 retries=2 d=1", "80efd0a568ceec47e1a2daea52498a14");
    ("serve random-tree 600 uniform retry_after=40 retries=2 d=2", "80efd0a568ceec47e1a2daea52498a14");
    ("serve random-tree 600 uniform retry_after=6 retries=1 d=1", "3392ce45040646f279766d5db9449377");
    ("serve random-tree 600 uniform retry_after=6 retries=1 d=2", "3392ce45040646f279766d5db9449377");
    ("serve squall storm d=1", "706d1b6a4542cea4e6695c39fc0629d4");
    ("serve squall storm d=2", "706d1b6a4542cea4e6695c39fc0629d4");
  ]

(* ------------------------------------------------------------------ *)
(* Node state: the four message-level node programs Bfs_tree, DiamDOM's
   census, the 3-colouring step and Simple_mst_congest.  Each case writes
   out, by name, the program's decoded result, its stats and the per-round
   stepped/woken counts of the run and every send in emission order, at 1
   and 2 domains; four more run each program under reliable delivery over
   a lossy, duplicating, reordering network and write the decoded states,
   the fault report and the sends. *)

module Runtime = Kdom_congest.Runtime
module Async = Kdom_congest.Async

let arr b a = ints b (Array.to_list a)

let bfs_info b (i : Bfs_tree.info) =
  Printf.bprintf b "root=%d height=%d\ndepth=" i.root i.height;
  arr b i.depth;
  Buffer.add_string b "\nparent=";
  arr b i.parent;
  Buffer.add_string b "\nchildren=";
  Array.iter (fun c -> ints b c; Buffer.add_char b '|') i.children;
  Buffer.add_string b "\nm_known=";
  arr b i.m_known

let bools b a = arr b (Array.map Bool.to_int a)

let smc_fragments b frags =
  List.iter
    (fun (f : Simple_mst.fragment) ->
      Printf.bprintf b "\nroot=%d depth=%d members=" f.root f.depth;
      ints b f.members;
      Buffer.add_string b " edges=";
      ints b (List.map (fun (e : Graph.edge) -> e.id) f.tree_edges))
    frags

(* [sink] extended to log every send, in emission order. *)
let sends (sink : Engine.Sink.t) =
  let log = Buffer.create 4096 in
  ( log,
    {
      sink with
      on_message =
        (fun ~round ~src ~dst ~words ->
          Printf.bprintf log "%d:%d>%d/%d," round src dst words;
          sink.on_message ~round ~src ~dst ~words);
    } )

let stats b (st : Engine.stats) =
  Printf.bprintf b "\nrounds=%d messages=%d max_inflight=%d" st.rounds st.messages
    st.max_inflight

let fault_report b (r : Async.fault_report) =
  Printf.bprintf b
    "\nasync_time=%h pulses=%d alg_messages=%d sync_messages=%d frames=%d retransmits=%d \
     timeouts=%d dropped=%d duplicated=%d crash_dropped=%d corrupted=%d"
    r.report.async_time r.report.pulses r.report.alg_messages r.report.sync_messages
    r.frames r.retransmits r.timeouts r.dropped r.duplicated r.crash_dropped r.corrupted

(* One node program with its word budget and result decoder. *)
type program =
  | Program : string * int * (unit -> 'st Engine.ealgorithm) * (Buffer.t -> 'st array -> unit)
      -> program

let node_programs name g =
  let t = mst_tree g in
  let info, _ = Bfs_tree.run g ~root:0 in
  let p what max_words mk dec = Program (Printf.sprintf "%s %s" name what, max_words, mk, dec) in
  [
    p "bfs" Bfs_tree.max_words (fun () -> Bfs_tree.algorithm g ~root:0) (fun b s ->
        bfs_info b (Bfs_tree.info_of_states g ~root:0 s));
    p "coloring" Coloring.congest_max_words (fun () -> Coloring.congest_algorithm t ~root:0)
      (fun b s -> arr b (Coloring.colors_of_states s));
  ]
  @ List.map
      (fun k ->
        p (Printf.sprintf "census k=%d" k) Diam_dom.census_max_words
          (fun () -> Diam_dom.census_algorithm info ~k)
          (fun b s -> bools b (Diam_dom.dominating_of_states s)))
      [ 2; 8 ]
  @ List.map
      (fun k ->
        p (Printf.sprintf "smc k=%d" k) Simple_mst_congest.max_words
          (fun () -> Simple_mst_congest.algorithm g ~k)
          (fun b s -> smc_fragments b (Simple_mst_congest.fragments_of_states g s)))
      [ 2; 8; 30 ]

(* The coloring program runs on the graph's MST, every other one on the
   graph itself. *)
let host_of name g = if String.ends_with ~suffix:"coloring" name then mst_tree g else g

let node_state_inputs () =
  [
    ("grid 30x30", Generators.grid ~rng:(Rng.create 31) ~rows:30 ~cols:30);
    ("gnp 300", Generators.gnp_connected ~rng:(Rng.create 32) ~n:300 ~p:0.02);
    ("pa 2000", Generators.preferential_attachment ~rng:(Rng.create 33) ~n:2000 ~m:2);
    ("random-tree 500", Generators.random_tree ~rng:(Rng.create 34) 500);
  ]

let node_state_cases () =
  List.concat_map
    (fun d ->
      List.concat_map
        (fun (name, g) ->
          List.map
            (fun (Program (what, max_words, mk, dec)) ->
              let tr = Kdom_congest.Trace.create () in
              let sends, sink = sends (Kdom_congest.Trace.sink tr) in
              let states, st =
                Engine.with_domains d (fun () ->
                    Runtime.run ~max_words ~sink (host_of what g) (mk ()))
              in
              let out b () =
                dec b states;
                stats b st;
                Printf.bprintf b "\nsends=%s" (Digest.to_hex (Digest.string (Buffer.contents sends)));
                Buffer.add_string b "\nstepped/woken=";
                List.iter
                  (fun (ri : Engine.Sink.round_info) ->
                    Printf.bprintf b "%d:%d/%d," ri.round ri.counts.(Engine.Sink.stepped)
                      ri.counts.(Engine.Sink.woken))
                  (Kdom_congest.Trace.rounds tr)
              in
              (Printf.sprintf "%s d=%d" what d, digest out ()))
            (node_programs name g))
        (node_state_inputs ()))
    [ 1; 2 ]

(* Under reliable delivery with 20% loss, 10% duplication and reordering:
   the decoded states and the fault report. *)
let node_state_async_cases () =
  let g = Generators.random_tree ~rng:(Rng.create 35) 150 in
  List.filter_map
    (fun (Program (what, max_words, mk, dec)) ->
      if not (List.mem what [ "t150 bfs"; "t150 coloring"; "t150 census k=2"; "t150 smc k=8" ])
      then None
      else begin
        let faults = Kdom_congest.Faults.lossy ~drop:0.2 ~duplicate:0.1 ~reorder:true ~seed:36 () in
        let sends, sink = sends Engine.Sink.null in
        let states, rep =
          Async.run_reliable ~rng:(Rng.create 37) ~faults ~max_words ~sink (host_of what g)
            (mk ())
        in
        let out b () =
          dec b states;
          fault_report b rep;
          Printf.bprintf b "\nsends=%s" (Digest.to_hex (Digest.string (Buffer.contents sends)))
        in
        Some (Printf.sprintf "%s async lossy" what, digest out ())
      end)
    (node_programs "t150" g)

(* One algorithm value runs twice on one engine, then on the reference
   simulator: the three runs agree on the states and the stats. *)
let test_node_state_rerun () =
  let g = Generators.gnp_connected ~rng:(Rng.create 38) ~n:120 ~p:0.05 in
  List.iter
    (fun (Program (what, max_words, mk, _)) ->
      let h = host_of what g in
      let a = mk () in
      let e = Engine.create h in
      let first = Engine.exec_emit ~max_words e a in
      let second = Engine.exec_emit ~max_words e a in
      let reference = Runtime.run_reference ~max_words h a in
      if first <> second then Alcotest.failf "%s: a second run on one engine differs" what;
      if first <> reference then Alcotest.failf "%s: the reference run differs" what)
    (node_programs "gnp 120" g)

(* Recorded with the immutable per-node records. *)
let expected_node_state =
  [
    ("gnp 300 bfs d=1", "cecb696b19402d3d44aff7b4c6f0668b");
    ("gnp 300 bfs d=2", "cecb696b19402d3d44aff7b4c6f0668b");
    ("gnp 300 census k=2 d=1", "a70416d8c0efb4ccef6346a5986aa2e4");
    ("gnp 300 census k=2 d=2", "a70416d8c0efb4ccef6346a5986aa2e4");
    ("gnp 300 census k=8 d=1", "8c4eefde329f983e2cce25bf46fe1423");
    ("gnp 300 census k=8 d=2", "8c4eefde329f983e2cce25bf46fe1423");
    ("gnp 300 coloring d=1", "fb41527e75ce19f13137ef04303e4b0e");
    ("gnp 300 coloring d=2", "fb41527e75ce19f13137ef04303e4b0e");
    ("gnp 300 smc k=2 d=1", "3edc8e770c27d255f1ab14dd2dd06c79");
    ("gnp 300 smc k=2 d=2", "3edc8e770c27d255f1ab14dd2dd06c79");
    ("gnp 300 smc k=30 d=1", "551a54c1822b57b0374a73b35413fdcc");
    ("gnp 300 smc k=30 d=2", "551a54c1822b57b0374a73b35413fdcc");
    ("gnp 300 smc k=8 d=1", "4902d3e4a226a9ccbd4e22539fa699e7");
    ("gnp 300 smc k=8 d=2", "4902d3e4a226a9ccbd4e22539fa699e7");
    ("grid 30x30 bfs d=1", "cc9233f9ea8289e3978bf0d4203daec1");
    ("grid 30x30 bfs d=2", "cc9233f9ea8289e3978bf0d4203daec1");
    ("grid 30x30 census k=2 d=1", "71063656fdd18665cab00124d8fdc41a");
    ("grid 30x30 census k=2 d=2", "71063656fdd18665cab00124d8fdc41a");
    ("grid 30x30 census k=8 d=1", "5104b0e5635a687e243813964de23c3e");
    ("grid 30x30 census k=8 d=2", "5104b0e5635a687e243813964de23c3e");
    ("grid 30x30 coloring d=1", "e4530c208688a2c6bee84f376ed254ca");
    ("grid 30x30 coloring d=2", "e4530c208688a2c6bee84f376ed254ca");
    ("grid 30x30 smc k=2 d=1", "ea67db22a0be88fca66cc4466c5f57fe");
    ("grid 30x30 smc k=2 d=2", "ea67db22a0be88fca66cc4466c5f57fe");
    ("grid 30x30 smc k=30 d=1", "3110fc6bb37d29ddab25dc8aee13999d");
    ("grid 30x30 smc k=30 d=2", "3110fc6bb37d29ddab25dc8aee13999d");
    ("grid 30x30 smc k=8 d=1", "07c812b1e66863ff8219b4576952a801");
    ("grid 30x30 smc k=8 d=2", "07c812b1e66863ff8219b4576952a801");
    ("pa 2000 bfs d=1", "abc0571e75d5c8c62da954b4c2a8e2db");
    ("pa 2000 bfs d=2", "abc0571e75d5c8c62da954b4c2a8e2db");
    ("pa 2000 census k=2 d=1", "7b08565700cb6eafda6c5d84c08cf438");
    ("pa 2000 census k=2 d=2", "7b08565700cb6eafda6c5d84c08cf438");
    ("pa 2000 census k=8 d=1", "8936e6684ea783f467aee0547f280377");
    ("pa 2000 census k=8 d=2", "8936e6684ea783f467aee0547f280377");
    ("pa 2000 coloring d=1", "cdef6a8d79f68c3857accaa901bce0e9");
    ("pa 2000 coloring d=2", "cdef6a8d79f68c3857accaa901bce0e9");
    ("pa 2000 smc k=2 d=1", "150e281add436cef4d4c62a814277df1");
    ("pa 2000 smc k=2 d=2", "150e281add436cef4d4c62a814277df1");
    ("pa 2000 smc k=30 d=1", "9ab8561d8b9e133541290ac061541d9b");
    ("pa 2000 smc k=30 d=2", "9ab8561d8b9e133541290ac061541d9b");
    ("pa 2000 smc k=8 d=1", "697c97c880a2f4a53db8fde36334198b");
    ("pa 2000 smc k=8 d=2", "697c97c880a2f4a53db8fde36334198b");
    ("random-tree 500 bfs d=1", "bb2d57eea956e48d735074f41364817c");
    ("random-tree 500 bfs d=2", "bb2d57eea956e48d735074f41364817c");
    ("random-tree 500 census k=2 d=1", "7365394bfe9b469c66d3a84c4c93117e");
    ("random-tree 500 census k=2 d=2", "7365394bfe9b469c66d3a84c4c93117e");
    ("random-tree 500 census k=8 d=1", "bd319a03cbd5ee226b3d09014a007c38");
    ("random-tree 500 census k=8 d=2", "bd319a03cbd5ee226b3d09014a007c38");
    ("random-tree 500 coloring d=1", "73e187bfb538075c42bea863ceeea3d7");
    ("random-tree 500 coloring d=2", "73e187bfb538075c42bea863ceeea3d7");
    ("random-tree 500 smc k=2 d=1", "30810cc0acfe641f41bda7d3d5c461db");
    ("random-tree 500 smc k=2 d=2", "30810cc0acfe641f41bda7d3d5c461db");
    ("random-tree 500 smc k=30 d=1", "4b7406af5b8573315486931f8b503df5");
    ("random-tree 500 smc k=30 d=2", "4b7406af5b8573315486931f8b503df5");
    ("random-tree 500 smc k=8 d=1", "53d50a86d30148890e0f601c1966005c");
    ("random-tree 500 smc k=8 d=2", "53d50a86d30148890e0f601c1966005c");
    ("t150 bfs async lossy", "faf9405fb669bff7473de866267eed98");
    ("t150 census k=2 async lossy", "232a06816725f218c8da8688040b9a12");
    ("t150 coloring async lossy", "60c731e9a8e84874fb23f97a10054839");
    ("t150 smc k=8 async lossy", "fe56a9883d3fca89f06922c359dc5b82");
  ]

(* Every case of one test is checked before failing, and the failure lists
   the computed digests of the cases that differ. *)
let check_cases cases () =
  let differ =
    List.filter_map
      (fun (name, got) ->
        if List.assoc_opt name (expected @ expected_geometry @ expected_serve @ expected_node_state) = Some got then None
        else Some (Printf.sprintf "(%S, %S);" name got))
      (cases ())
  in
  if differ <> [] then
    Alcotest.failf "digests differ from the recorded ones:\n%s" (String.concat "\n" differ)

let () =
  Alcotest.run "fingerprint"
    [
      ( "fastdom_g path",
        List.concat_map
          (fun (name, g) ->
            List.map
              (fun k ->
                Alcotest.test_case (Printf.sprintf "%s k=%d" name k) `Quick
                  (check_cases (fun () -> cases name g ~k)))
              ks)
          (instances ())
        @ [ Alcotest.test_case "dom-pa k=8" `Slow (check_cases dom_pa_cases) ] );
      ( "cluster geometry",
        [
          Alcotest.test_case "plans, quotients, hierarchies, dyn_dom" `Quick
            (check_cases geometry_cases);
        ] );
      ( "serve",
        [
          Alcotest.test_case "reports, traffic and schedules at 1 and 2 domains" `Quick
            (check_cases serve_cases);
        ] );
      ( "node state",
        [
          Alcotest.test_case "bfs, census, coloring, smc at 1 and 2 domains" `Quick
            (check_cases node_state_cases);
          Alcotest.test_case "bfs, census, coloring, smc under reliable delivery" `Quick
            (check_cases node_state_async_cases);
          Alcotest.test_case "one algorithm value runs again" `Quick test_node_state_rerun;
        ] );
    ]
