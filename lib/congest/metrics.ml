type span_report = {
  r_name : string;
  r_count : int;
  r_rounds : int;
  r_max_rounds : int;
  r_counts : int array;
}

type t = {
  rounds : int;
  messages : int;
  delivered : int;
  bits : int;
  peak_words : int;
  budget : int option;
  totals : int array;
  edge_peaks : (int * int) list;
  span_reports : span_report list;
  notes : (string * int) list;
  hists : (string * (int * int) list) list;
}

let report tr =
  let order = ref [] in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      let st = Trace.span_stats tr s in
      let r =
        match Hashtbl.find_opt by_name s.name with
        | Some r -> r
        | None ->
          order := s.name :: !order;
          {
            r_name = s.name;
            r_count = 0;
            r_rounds = 0;
            r_max_rounds = 0;
            r_counts = Array.make Engine.Sink.n_counters 0;
          }
      in
      Hashtbl.replace by_name s.name
        {
          r with
          r_count = r.r_count + 1;
          r_rounds = r.r_rounds + st.s_rounds;
          r_max_rounds = max r.r_max_rounds st.s_rounds;
          r_counts = Array.map2 ( + ) r.r_counts st.s_counts;
        })
    (Trace.spans tr);
  let totals = Trace.totals tr in
  {
    rounds = Trace.clock tr;
    messages = Trace.messages tr;
    delivered = totals.(Engine.Sink.delivered);
    bits = totals.(Engine.Sink.bits);
    peak_words = Trace.peak_words tr;
    budget = Trace.budget tr;
    totals;
    edge_peaks = Trace.edge_peak_hist tr;
    span_reports = List.rev_map (Hashtbl.find by_name) !order;
    notes = Trace.notes tr;
    hists = Trace.histograms tr;
  }

let within_budget r =
  match r.budget with None -> true | Some b -> r.peak_words <= b

let find r name = List.find_opt (fun sr -> sr.r_name = name) r.span_reports

let matching r ~prefix =
  let plen = String.length prefix in
  List.filter
    (fun sr ->
      String.length sr.r_name >= plen && String.sub sr.r_name 0 plen = prefix)
    r.span_reports

let span_index name =
  match (String.rindex_opt name '[', String.rindex_opt name ']') with
  | Some i, Some j when j = String.length name - 1 && i < j ->
    int_of_string_opt (String.sub name (i + 1) (j - i - 1))
  | _ -> None

let pp ppf r =
  let c = Array.get r.totals in
  let open Engine.Sink in
  Format.fprintf ppf "@[<v>rounds %d  messages %d  delivered %d  words %d  bits %d@,"
    r.rounds r.messages r.delivered (c words) r.bits;
  Format.fprintf ppf "peak words %d%a" r.peak_words
    (fun ppf -> function
      | None -> ()
      | Some b ->
        Format.fprintf ppf " / budget %d%s" b
          (if r.peak_words <= b then "" else "  EXCEEDED"))
    r.budget;
  if c skipped + c woken > 0 then
    Format.fprintf ppf "@,frontier: skipped %d  woken %d" (c skipped) (c woken);
  if c dropped + c duplicated + c retransmits + c corrupted + c crashed > 0 then
    Format.fprintf ppf
      "@,faults: dropped %d  duplicated %d  retransmits %d  corrupted %d  crashed %d"
      (c dropped) (c duplicated) (c retransmits) (c corrupted) (c crashed);
  if c arrived + c departed + c inserted > 0 then
    Format.fprintf ppf "@,dynamic: arrived %d  departed %d  inserted %d"
      (c arrived) (c departed) (c inserted);
  if r.span_reports <> [] then begin
    Format.fprintf ppf "@,@[<v 2>spans:";
    List.iter
      (fun sr ->
        Format.fprintf ppf "@,%-32s x%-3d rounds %5d (max %4d)  delivered %6d  words %6d"
          sr.r_name sr.r_count sr.r_rounds sr.r_max_rounds
          sr.r_counts.(delivered) sr.r_counts.(words))
      r.span_reports;
    Format.fprintf ppf "@]"
  end;
  if r.notes <> [] then begin
    Format.fprintf ppf "@,@[<v 2>notes:";
    List.iter (fun (k, v) -> Format.fprintf ppf "@,%s = %d" k v) r.notes;
    Format.fprintf ppf "@]"
  end;
  if r.hists <> [] then begin
    Format.fprintf ppf "@,@[<v 2>histograms:";
    List.iter
      (fun (k, buckets) ->
        Format.fprintf ppf "@,%s =" k;
        List.iter (fun (v, c) -> Format.fprintf ppf " %d:%d" v c) buckets)
      r.hists;
    Format.fprintf ppf "@]"
  end;
  Format.fprintf ppf "@]"
