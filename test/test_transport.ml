(* Concurrent transport: Netio byte queues, the sans-IO Transport state
   machine, the chaos network planner, the retrying client, and the
   per-session serving contract it all rides on.

   The differential fuzzer (mqdp_fuzz --transport) covers whole-system
   equivalence under chaos; these tests pin the local behaviors a failed
   round would not localize — framing edge cases, deadline arithmetic,
   backpressure bounds, retry schedules, and the state-dir manifest. *)

(* --- Netio.Buf ----------------------------------------------------- *)

module Buf = Util.Netio.Buf

let buf_contents b =
  match Buf.peek b with
  | None -> ""
  | Some (store, pos, len) -> Bytes.sub_string store pos len

let test_buf_queue () =
  let b = Buf.create ~initial:4 () in
  Alcotest.(check bool) "empty" true (Buf.is_empty b);
  Buf.add_string b "hello ";
  Buf.add_string b "world";
  Alcotest.(check int) "length" 11 (Buf.length b);
  Alcotest.(check string) "contents" "hello world" (buf_contents b);
  Buf.drop b 6;
  Alcotest.(check string) "front consumed" "world" (buf_contents b);
  (* Append after a drop: the queue must keep front bytes intact while
     growing at the back. *)
  Buf.add_string b "!";
  Alcotest.(check string) "append after drop" "world!" (buf_contents b);
  Alcotest.(check int) "index_from start" 1 (Buf.index_from b ~from:0 'o');
  Alcotest.(check int) "index_from resume" (-1) (Buf.index_from b ~from:2 'o');
  Alcotest.(check int) "index_from past end" (-1) (Buf.index_from b ~from:99 'o');
  Alcotest.(check string) "sub_string" "rld" (Buf.sub_string b ~pos:2 ~len:3);
  Alcotest.check_raises "drop past end" (Invalid_argument "Netio.Buf.drop")
    (fun () -> Buf.drop b 7);
  Buf.clear b;
  Alcotest.(check bool) "cleared" true (Buf.is_empty b)

(* --- Transport framing --------------------------------------------- *)

module Transport = Mqdp.Transport

let no_idle =
  { Transport.default_config with Transport.idle_timeout = None }

let transport ?(config = no_idle) ?(now = 0.) () =
  Transport.create ~config ~now ()

let step =
  Alcotest.testable
    (fun fmt -> function
      | Transport.Request line -> Format.fprintf fmt "Request %S" line
      | Transport.Wait -> Format.fprintf fmt "Wait"
      | Transport.Close r ->
        Format.fprintf fmt "Close %s" (Transport.close_reason_string r))
    ( = )

let take_output tr =
  let b = Buffer.create 64 in
  let rec go () =
    match Transport.output tr with
    | None -> Buffer.contents b
    | Some (store, pos, len) ->
      Buffer.add_subbytes b store pos len;
      Transport.wrote tr len;
      go ()
  in
  go ()

let test_request_response_cycle () =
  let tr = transport () in
  Transport.feed_string tr "1 PING\n";
  Alcotest.check step "framed" (Transport.Request "1 PING")
    (Transport.next tr ~now:0.);
  Alcotest.check step "drained input" Transport.Wait (Transport.next tr ~now:0.);
  Transport.respond tr [ "1 OK pong" ];
  Alcotest.(check bool) "has output" true (Transport.has_output tr);
  Alcotest.(check string) "newline appended" "1 OK pong\n" (take_output tr);
  Alcotest.(check bool) "flushed" false (Transport.has_output tr)

let test_partial_reads_reassemble () =
  let tr = transport () in
  String.iter
    (fun c ->
      Alcotest.check step "no request yet" Transport.Wait
        (Transport.next tr ~now:0.);
      Transport.feed_string tr (String.make 1 c))
    "2 QUERY alice";
  Transport.feed_string tr "\n";
  Alcotest.check step "reassembled" (Transport.Request "2 QUERY alice")
    (Transport.next tr ~now:0.)

let test_framing_edge_cases () =
  let tr = transport () in
  (* CRLF tolerated, empty lines and NUL bytes frame verbatim (the
     engine rejects them at parse time — the transport's job is only to
     cut lines), non-numeric sequence tokens pass through untouched. *)
  Transport.feed_string tr "3 PING\r\n\nnot-a-seq PING\n4 FEED a\x00b\n";
  Alcotest.check step "crlf stripped" (Transport.Request "3 PING")
    (Transport.next tr ~now:0.);
  Alcotest.check step "empty line framed" (Transport.Request "")
    (Transport.next tr ~now:0.);
  Alcotest.check step "non-numeric seq framed"
    (Transport.Request "not-a-seq PING") (Transport.next tr ~now:0.);
  Alcotest.check step "nul byte framed" (Transport.Request "4 FEED a\x00b")
    (Transport.next tr ~now:0.);
  Alcotest.check step "wait" Transport.Wait (Transport.next tr ~now:0.)

let test_oversized_line_condemns () =
  let config = { no_idle with Transport.max_line = 16 } in
  let tr = transport ~config () in
  (* No newline in sight: the cap must fire on arrival, not at framing. *)
  Transport.feed_string tr (String.make 17 'A');
  Alcotest.check step "condemned" (Transport.Close Transport.Line_too_long)
    (Transport.next tr ~now:0.);
  let out = take_output tr in
  Alcotest.(check bool) "transport-level error response" true
    (String.starts_with ~prefix:"0 ERR line-too-long" out);
  (* Late bytes after the fault are ignored. *)
  Transport.feed_string tr "5 PING\n";
  Alcotest.check step "still condemned" (Transport.Close Transport.Line_too_long)
    (Transport.next tr ~now:0.)

let test_oversized_terminated_line_condemns () =
  let config = { no_idle with Transport.max_line = 16 } in
  let tr = transport ~config () in
  (* The newline arrives in the same chunk, so the arrival-time tail
     counter resets — the pop-time recheck must still reject the line. *)
  Transport.feed_string tr (String.make 17 'A' ^ "\n");
  Alcotest.check step "condemned at pop" (Transport.Close Transport.Line_too_long)
    (Transport.next tr ~now:0.)

let test_idle_deadline_rearms_on_completed_requests_only () =
  let config = { no_idle with Transport.idle_timeout = Some 10. } in
  let tr = transport ~config ~now:0. () in
  Alcotest.(check (option (float 1e-9))) "armed at creation" (Some 10.)
    (Transport.idle_deadline tr);
  Alcotest.check step "before deadline" Transport.Wait (Transport.next tr ~now:9.);
  (* A completed request re-arms. *)
  Transport.feed_string tr "1 PING\n";
  Alcotest.check step "request" (Transport.Request "1 PING")
    (Transport.next tr ~now:9.);
  Alcotest.(check (option (float 1e-9))) "re-armed" (Some 19.)
    (Transport.idle_deadline tr);
  (* Slowloris: raw bytes without a newline must NOT re-arm. *)
  Transport.feed_string tr "2 PI";
  Alcotest.check step "trickle does not reset" Transport.Wait
    (Transport.next tr ~now:18.);
  Transport.feed_string tr "NG";
  Alcotest.check step "idle fires" (Transport.Close Transport.Idle_timeout)
    (Transport.next tr ~now:19.);
  Alcotest.(check bool) "idle error response" true
    (String.starts_with ~prefix:"0 ERR idle-timeout" (take_output tr));
  Alcotest.(check (option (float 1e-9))) "deadline cleared once condemned" None
    (Transport.idle_deadline tr)

let test_output_overflow_condemns () =
  let config = { no_idle with Transport.max_pending_out = 32 } in
  let tr = transport ~config () in
  Transport.respond tr [ String.make 40 'x' ];
  Alcotest.check step "condemned" (Transport.Close Transport.Output_overflow)
    (Transport.next tr ~now:0.)

let test_drain_serves_buffered_then_closes () =
  let tr = transport () in
  Transport.feed_string tr "1 PING\n2 PING\n3 PARTIAL";
  Transport.begin_drain tr;
  Alcotest.(check bool) "draining" true (Transport.draining tr);
  Alcotest.check step "first buffered request" (Transport.Request "1 PING")
    (Transport.next tr ~now:0.);
  Alcotest.check step "second buffered request" (Transport.Request "2 PING")
    (Transport.next tr ~now:0.);
  (* The unterminated tail never framed a request — abandoned. *)
  Alcotest.check step "drained" (Transport.Close Transport.Drained)
    (Transport.next tr ~now:0.)

let test_eof_serves_buffered_then_closes () =
  let tr = transport () in
  Transport.feed_string tr "1 PING\n";
  Transport.feed_eof tr;
  Alcotest.check step "buffered request" (Transport.Request "1 PING")
    (Transport.next tr ~now:0.);
  Alcotest.check step "eof" (Transport.Close Transport.Eof)
    (Transport.next tr ~now:0.)

let test_partial_write_bookkeeping () =
  let tr = transport () in
  Transport.respond tr [ "1 OK alpha"; "2 OK beta" ];
  Alcotest.(check int) "queued" 21 (Transport.output_length tr);
  (match Transport.output tr with
  | None -> Alcotest.fail "expected output"
  | Some (store, pos, len) ->
    Alcotest.(check int) "contiguous view" 21 len;
    Alcotest.(check string) "view contents" "1 OK alpha\n2 OK beta\n"
      (Bytes.sub_string store pos len));
  Transport.wrote tr 5;
  (match Transport.output tr with
  | None -> Alcotest.fail "expected remainder"
  | Some (store, pos, len) ->
    Alcotest.(check string) "remainder after partial write"
      "alpha\n2 OK beta\n"
      (Bytes.sub_string store pos len));
  Transport.wrote tr 16;
  Alcotest.(check bool) "fully flushed" false (Transport.has_output tr)

(* --- Fault.Net chaos planner --------------------------------------- *)

let plan_of ~seed ~config data =
  Util.Fault.Net.plan (Util.Fault.create ~seed ()) ~config data

let chunk_concat actions =
  String.concat ""
    (List.filter_map
       (function Util.Fault.Net.Chunk c -> Some c | Util.Fault.Net.Delay -> None)
       actions)

let test_net_plan_deterministic () =
  let data = "1 FEED 100 1.0 1,2\n" in
  let a1, r1 = plan_of ~seed:42 ~config:Util.Fault.Net.default data in
  let a2, r2 = plan_of ~seed:42 ~config:Util.Fault.Net.default data in
  Alcotest.(check bool) "same reset" r1 r2;
  Alcotest.(check string) "same delivery" (chunk_concat a1) (chunk_concat a2);
  Alcotest.(check int) "same action count" (List.length a1) (List.length a2)

let test_net_plan_delivery_identity () =
  let data = String.init 257 (fun i -> Char.chr (32 + (i mod 64))) in
  let config = { Util.Fault.Net.default with Util.Fault.Net.max_chunk = 7 } in
  for seed = 0 to 49 do
    let actions, reset = plan_of ~seed ~config data in
    let delivered = chunk_concat actions in
    List.iter
      (function
        | Util.Fault.Net.Chunk c ->
          Alcotest.(check bool) "chunk non-empty" true (String.length c > 0);
          Alcotest.(check bool) "chunk within max_chunk" true
            (String.length c <= 7)
        | Util.Fault.Net.Delay -> ())
      actions;
    if reset then
      (* A reset truncates: delivery is a strict prefix, torn anywhere. *)
      Alcotest.(check bool) "strict prefix under reset" true
        (String.length delivered < String.length data
        && String.sub data 0 (String.length delivered) = delivered)
    else Alcotest.(check string) "bit-identical without reset" data delivered
  done

(* --- Client retry discipline --------------------------------------- *)

module Client = Mqdp.Client

let fast_retry =
  { Client.default_config with Client.base_delay = 0.; max_delay = 0. }

(* A scripted transport: each call consumes the next canned outcome and
   records the wire line it was asked to send. *)
let scripted outcomes =
  let sent = ref [] and slept = ref 0 and script = ref outcomes in
  let io =
    {
      Client.send =
        (fun line ->
          sent := line :: !sent;
          match !script with
          | [] -> Alcotest.fail "client sent more requests than scripted"
          | o :: rest ->
            script := rest;
            o);
      sleep = (fun _ -> incr slept);
    }
  in
  (io, sent, slept)

let test_client_success_and_seq () =
  let io, sent, _ = scripted [ Some [ "1 OK pong" ]; Some [ "2 OK pong" ] ] in
  let cl = Client.create ~config:fast_retry io in
  Alcotest.(check int) "first seq" 1 (Client.next_seq cl);
  (match Client.request cl "PING" with
  | Ok lines -> Alcotest.(check (list string)) "response" [ "1 OK pong" ] lines
  | Error _ -> Alcotest.fail "expected success");
  ignore (Client.request cl "PING");
  Alcotest.(check (list string)) "seq-prefixed wire lines"
    [ "1 PING"; "2 PING" ] (List.rev !sent);
  Alcotest.(check int) "no retries" 0 (Client.retries cl)

let test_client_retries_verbatim_on_failure () =
  (* One transport failure, one transport-level shed: both must retry
     the SAME line (the engine's idempotency contract), then succeed. *)
  let io, sent, slept =
    scripted [ None; Some [ "0 ERR capacity retry later" ]; Some [ "1 OK pong" ] ]
  in
  let cl = Client.create ~config:fast_retry io in
  (match Client.request cl "PING" with
  | Ok lines -> Alcotest.(check (list string)) "response" [ "1 OK pong" ] lines
  | Error _ -> Alcotest.fail "expected eventual success");
  Alcotest.(check (list string)) "identical line each attempt"
    [ "1 PING"; "1 PING"; "1 PING" ] (List.rev !sent);
  Alcotest.(check int) "two retries" 2 (Client.retries cl);
  Alcotest.(check int) "slept between attempts" 2 !slept

let test_client_server_error_is_a_response () =
  let io, _, _ = scripted [ Some [ "1 ERR parse bad verb" ] ] in
  let cl = Client.create ~config:fast_retry io in
  match Client.request cl "FROB" with
  | Ok lines ->
    Alcotest.(check (list string)) "returned, not retried"
      [ "1 ERR parse bad verb" ] lines
  | Error _ -> Alcotest.fail "server-level ERR must not exhaust retries"

let test_client_gives_up () =
  let config = { fast_retry with Client.max_attempts = 3 } in
  let io, sent, _ = scripted [ None; None; None ] in
  let cl = Client.create ~config io in
  (match Client.request cl "PING" with
  | Ok _ -> Alcotest.fail "expected give-up"
  | Error (Client.Gave_up { attempts; line }) ->
    Alcotest.(check int) "attempts" 3 attempts;
    Alcotest.(check string) "line" "1 PING" line);
  Alcotest.(check int) "stopped at max_attempts" 3 (List.length !sent)

let test_client_backoff_schedule () =
  let config =
    {
      Client.max_attempts = 6;
      base_delay = 0.01;
      max_delay = 0.08;
      jitter = 0.5;
    }
  in
  let s1 = Client.backoff_schedule config ~seed:7 ~attempts:5 in
  let s2 = Client.backoff_schedule config ~seed:7 ~attempts:5 in
  let s3 = Client.backoff_schedule config ~seed:8 ~attempts:5 in
  Alcotest.(check (list (float 1e-12))) "deterministic per seed" s1 s2;
  Alcotest.(check bool) "seed moves the jitter" true (s1 <> s3);
  List.iter
    (fun d ->
      Alcotest.(check bool) "positive" true (d > 0.);
      Alcotest.(check bool) "capped (ceiling + jitter)" true
        (d <= config.Client.max_delay *. 1.25))
    s1;
  (* Exponential growth until the cap dominates. *)
  Alcotest.(check bool) "grows" true (List.nth s1 2 > List.nth s1 0)

(* --- Serve sessions and the manifest ------------------------------- *)

module Serve = Mqdp.Serve

let engine () =
  Serve.create { Serve.default_config with Serve.shards = 2; jobs = 1 }

let test_sessions_are_independent_seq_spaces () =
  let serve = engine () in
  Fun.protect ~finally:(fun () -> Serve.shutdown serve) @@ fun () ->
  let a = Serve.new_session serve and b = Serve.new_session serve in
  (* Same sequence number on two sessions: both must execute. *)
  Alcotest.(check (list string)) "a executes"
    [ "1 OK added" ] (Serve.exec_on serve a "1 ADD alice 60 instant 1 nowindow");
  Alcotest.(check (list string)) "b executes (not a's cache)"
    [ "1 OK added" ] (Serve.exec_on serve b "1 ADD bob 60 instant 2 nowindow");
  (* Retrying a's line verbatim replays the cache — re-execution would
     report duplicate-profile. *)
  Alcotest.(check (list string)) "verbatim retry replays cache"
    [ "1 OK added" ] (Serve.exec_on serve a "1 ADD alice 60 instant 1 nowindow");
  Alcotest.(check int) "profiles" 2 (Serve.profile_count serve)

let test_named_sessions_survive_reconnects () =
  let serve = engine () in
  Fun.protect ~finally:(fun () -> Serve.shutdown serve) @@ fun () ->
  let s1 = Serve.session serve ~id:"cli1" in
  ignore (Serve.exec_on serve s1 "1 ADD carol 60 instant 1 nowindow");
  (* The same HELLO id after a reconnect resolves to the same sequence
     space: the retry of an acked command replays instead of failing. *)
  let s2 = Serve.session serve ~id:"cli1" in
  Alcotest.(check (list string)) "replay across reconnect"
    [ "1 OK added" ] (Serve.exec_on serve s2 "1 ADD carol 60 instant 1 nowindow");
  Alcotest.(check int) "one named session" 1 (Serve.session_count serve);
  ignore (Serve.session serve ~id:"cli2");
  Alcotest.(check int) "two named sessions" 2 (Serve.session_count serve)

let test_is_checkpoint_line_whitespace () =
  List.iter
    (fun (line, expected) ->
      Alcotest.(check bool) (Printf.sprintf "%S" line) expected
        (Serve.is_checkpoint_line line))
    [
      ("5 CHECKPOINT", true);
      (* The pre-transport splitter broke on doubled separators: the
         token after the seq was "", not CHECKPOINT. *)
      ("5  CHECKPOINT", true);
      ("5 CHECKPOINT extra", true);
      ("5 CHECKPOINTX", false);
      ("5 checkpoint", false);
      ("CHECKPOINT", false);
      ("", false);
    ]

let test_manifest_roundtrip_and_mismatch () =
  let serve = engine () in
  Fun.protect ~finally:(fun () -> Serve.shutdown serve) @@ fun () ->
  Alcotest.(check (list (pair string int)))
    "roundtrip"
    [ ("shards", 2); ("epoch", 3); ("journal", 7) ]
    (Serve.parse_manifest (Serve.manifest ~extra:[ ("epoch", 3); ("journal", 7) ] serve));
  (* The unsealed v1 format of earlier builds is a version skew. *)
  (match Serve.parse_manifest "mqdp-serve state v1\nshards=2\nepoch=3\njournal=7\n" with
  | _ -> Alcotest.fail "v1 manifest must not parse"
  | exception Util.Fs.Unsupported_version { found = "v1"; expected = 2 } -> ());
  match Serve.parse_manifest "garbage" with
  | _ -> Alcotest.fail "garbage must not parse"
  | exception Util.Fs.Corrupt _ -> ()

let suite =
  [
    Alcotest.test_case "netio buf queue" `Quick test_buf_queue;
    Alcotest.test_case "request/response cycle" `Quick test_request_response_cycle;
    Alcotest.test_case "partial reads reassemble" `Quick
      test_partial_reads_reassemble;
    Alcotest.test_case "framing edge cases" `Quick test_framing_edge_cases;
    Alcotest.test_case "oversized line condemns" `Quick
      test_oversized_line_condemns;
    Alcotest.test_case "oversized terminated line condemns" `Quick
      test_oversized_terminated_line_condemns;
    Alcotest.test_case "idle deadline re-arms on requests only" `Quick
      test_idle_deadline_rearms_on_completed_requests_only;
    Alcotest.test_case "output overflow condemns" `Quick
      test_output_overflow_condemns;
    Alcotest.test_case "drain serves buffered then closes" `Quick
      test_drain_serves_buffered_then_closes;
    Alcotest.test_case "eof serves buffered then closes" `Quick
      test_eof_serves_buffered_then_closes;
    Alcotest.test_case "partial write bookkeeping" `Quick
      test_partial_write_bookkeeping;
    Alcotest.test_case "net plan deterministic" `Quick test_net_plan_deterministic;
    Alcotest.test_case "net plan delivery identity" `Quick
      test_net_plan_delivery_identity;
    Alcotest.test_case "client success and seq" `Quick test_client_success_and_seq;
    Alcotest.test_case "client retries verbatim" `Quick
      test_client_retries_verbatim_on_failure;
    Alcotest.test_case "client server-error is a response" `Quick
      test_client_server_error_is_a_response;
    Alcotest.test_case "client gives up" `Quick test_client_gives_up;
    Alcotest.test_case "client backoff schedule" `Quick
      test_client_backoff_schedule;
    Alcotest.test_case "sessions independent" `Quick
      test_sessions_are_independent_seq_spaces;
    Alcotest.test_case "named sessions survive reconnects" `Quick
      test_named_sessions_survive_reconnects;
    Alcotest.test_case "is_checkpoint_line whitespace" `Quick
      test_is_checkpoint_line_whitespace;
    Alcotest.test_case "manifest roundtrip and mismatch" `Quick
      test_manifest_roundtrip_and_mismatch;
  ]
