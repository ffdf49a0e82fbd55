//! Every wire and disk format, pinned byte for byte.
//!
//! One fixed value of each record type is encoded and compared with a hex
//! literal captured before the codec was rewritten onto one `Codec` trait
//! (ISSUE 25), and each literal decodes back to its value. A diff to this
//! file is a protocol change: every simulated figure may move with it, so
//! it is never part of a refactor.

use bft_crypto::{Digest, KeyTable};
use chainstore::Transaction;
use kvstore::KvStoreService;
use reptor::{
    encode_frame, scan_frames, CheckpointPayload, CheckpointStore, Envelope, KvOp, KvService,
    Manifest, Message, PreparedProof, Request, SignedMessage, StateMachine, WalFrame,
    DOMAIN_SECRET, MANIFEST_CHUNK,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex literal"))
        .collect()
}

fn req(c: u32, ts: u64) -> Request {
    Request {
        client: c,
        timestamp: ts,
        payload: vec![1, 2, 3],
    }
}

/// The values of `messages::tests::all_message_kinds_roundtrip`.
fn messages() -> Vec<Message> {
    let d = Digest::of(b"x");
    vec![
        Message::Request(req(10, 1)),
        Message::PrePrepare {
            view: 1,
            seq: 2,
            digest: d,
            batch: vec![req(10, 1), req(11, 2)],
        },
        Message::Prepare {
            view: 1,
            seq: 2,
            digest: d,
            replica: 3,
        },
        Message::Commit {
            view: 1,
            seq: 2,
            digest: d,
            replica: 3,
        },
        Message::Reply {
            view: 1,
            client: 10,
            timestamp: 5,
            replica: 2,
            result: b"ok".to_vec(),
        },
        Message::Checkpoint {
            seq: 100,
            state_digest: d,
            replica: 1,
            store_rkey: 77,
            store_len: 4096,
            store_epoch: 3,
        },
        Message::ViewChange {
            new_view: 2,
            last_stable: 100,
            checkpoint_digest: d,
            prepared: vec![PreparedProof {
                seq: 101,
                view: 1,
                digest: d,
                batch: vec![req(10, 9)],
            }],
            replica: 0,
        },
        Message::NewView {
            view: 2,
            pre_prepares: vec![(101, d, vec![req(10, 9)])],
            replica: 2,
        },
        Message::CatchUpRequest {
            from_seq: 7,
            replica: 3,
        },
        Message::CatchUpReply {
            seq: 7,
            view: 1,
            digest: d,
            batch: vec![req(10, 4), req(11, 2)],
            replica: 0,
        },
        Message::StateRequest {
            seq: 64,
            chunk: MANIFEST_CHUNK,
            replica: 2,
            epoch: 1,
        },
        Message::StateChunk {
            seq: 64,
            chunk: 3,
            data: vec![5; 97],
            replica: 1,
        },
        Message::SlotGrant {
            view: 2,
            replica: 3,
            rkey: 91,
            slot_size: 4096,
            slots: 128,
        },
        Message::LeaseQuery { client: 9 },
        Message::LeaseGrant {
            replica: 1,
            rkey: 77,
            len: 163_856,
            epoch: 4,
        },
    ]
}

const MESSAGES: [&str; 15] = [
    "000a000000010000000000000003000000010203",
    "01010000000000000002000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881020000000a0000000100000000000000030000000102030b000000020000000000000003000000010203",
    "02010000000000000002000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a488103000000",
    "03010000000000000002000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a488103000000",
    "0401000000000000000a000000050000000000000002000000020000006f6b",
    "0564000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881010000004d00000000100000000000000300000000000000",
    "06020000000000000064000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a488101000000650000000000000001000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881010000000a00000009000000000000000300000001020300000000",
    "0702000000000000000100000065000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881010000000a00000009000000000000000300000001020302000000",
    "08070000000000000003000000",
    "09070000000000000001000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881020000000a0000000400000000000000030000000102030b00000002000000000000000300000001020300000000",
    "0a4000000000000000ffffffff020000000100000000000000",
    "0b400000000000000003000000610000000505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050501000000",
    "0c0200000000000000030000005b00000000100000000000008000000000000000",
    "0d09000000",
    "0e010000004d00000010800200000000000400000000000000",
];
const SIGNED: [&str; 15] = [
    "14000000000a000000010000000000000003000000010203000000000300000001000000eb76deeb0dff373848fc9eb5a838fd83a12906d7c65293b272d7053b94d9363b02000000f5fd953b8711eb7e9d3c76fa5d273570337fbcde57c1cf14d9713683c9be90b403000000903b17ffcab4ed6d062adf3fca57bf0865f6ab78028bf38d74e3d0838fb9375b",
    "5b00000001010000000000000002000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881020000000a0000000100000000000000030000000102030b0000000200000000000000030000000102030000000003000000010000008adc626930cc289dca2e6d393a36a2419186395798244b771419e116a6575e2502000000dd9425ca71a5ac01c04b3b2a212f799b395a9209ffabbf3fb9f5056dd1f13c1303000000eb480c17bb1d7d3f640f7b03fbf4928876cae9d90ccbc3555d80f418cbeb68e0",
    "3500000002010000000000000002000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881030000000000000003000000010000007e2777fda1d898388c9b600099be5b5c96cf0e3bcf5f238abefd579ff58b8f1902000000ab897e3e64edc4f449df6cda1b705e83f36ac61510e8e75d5834b10b2b4069b003000000b732c4efb5d7594185fd7fa6b249720ef2af43c0f585c8bc28fc868ec98944d1",
    "3500000003010000000000000002000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881030000000000000003000000010000000bc9312d1c4ec9517a12501485e21d94bf3ea9e7107867e99cfc74b4f7c2a55902000000e8228294bef23662a52761852ed26accd4bcf70df49851beddf63468a4e5f4ce030000007fc738116920cbc1910523ffee088a5465f3702564ad2ba68af3751bb06e65c0",
    "1f0000000401000000000000000a000000050000000000000002000000020000006f6b000000000300000001000000e1efb75f9ebbdd83f082566ee7f460e0216f8340cba0baa5a56ae04a36d3550b020000000052f65c3b1880bb51dc3e4644eb6e736c916c6a86724fce913342740c80073d03000000aaea352bab33ccd98e8bbac8b8bb7a5c15bc471c513c7d8b8db558bb8da2ccb5",
    "410000000564000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881010000004d00000000100000000000000300000000000000000000000300000001000000e972f43792db1fef28289fa3a1c4e161696f8366c5e16cc4b50deb93935bd47002000000262ae89f66b3156c00bcc75c9dad9fb0fa239c021c9d1fa640598abd1b2e290803000000813be20cbcafe7191878c9e51477b143e6948e365abcc839fb5e3ddfb895cb66",
    "8000000006020000000000000064000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a488101000000650000000000000001000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881010000000a000000090000000000000003000000010203000000000000000003000000010000007bcbaad4ccca17c884a48e7b9e18118256b7157e928db64f377fa9066ac86ad102000000d72a2702cd37c5e5739ddf860106c66a309a6e20ed51d0f0c1e270fba3decf8503000000f98cc35c58c082eb885d0e5d8658836091b26fb50333ffcddb30ff5b05b7d2ec",
    "500000000702000000000000000100000065000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881010000000a00000009000000000000000300000001020302000000000000000300000001000000f0067d6f2ff43c47ff5dadfaf0e7c1b08d9acbf72e6c0e18aa13ac25730ce1fc0200000028136754924654be2b98b96a4addebde7835ce31d8374d639780fa86f4c6be9403000000bc5c251a5d5e74c62ecf86af8f6faa781c6dc7c69f2981e15b484cbc8a59373d",
    "0d00000008070000000000000003000000000000000300000001000000ac90941ac7243a5bc91523fc0ddb16410b99cc35d4a44725e5a815660606b06802000000bc717153c08431c461d0fe8d3168fabb351010d1a5ff28e51573a5a18e1434a603000000aedca4bc283771676b83c2df2e7286993e55ecbf9b2ce35e67e4353d61250b6d",
    "5f00000009070000000000000001000000000000002d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881020000000a0000000400000000000000030000000102030b00000002000000000000000300000001020300000000000000000300000001000000ea48aaf26704d914e67fbe5f6ed6e3bf4a68eba3322f04d75a15a62c91ad034f020000005e5214f90fad1c007eb8c41c8ead980a9b188fc519ced4416b977beb6f98fcbd030000008b7d3276c1dd5d6d9f3a8bd6ef64426ee628d605756a7c27bb3f384078489d61",
    "190000000a4000000000000000ffffffff020000000100000000000000000000000300000001000000437de268324c26b132692dadc2c25a0b0188fe308fe1b692a40055d79fb870770200000078c7a105f641808dbb9ca94e6603e62b8bd6c51106362db5af1c409126312bc7030000000f830e9d6fd5c7a0757c9ab2a3521bd94532c4caeea3de304b7ccc11d14b7e68",
    "760000000b40000000000000000300000061000000050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050505050100000000000000030000000100000011d8973bb90592e740d5c8132b83b82e879dd6eca9df7e1b33cd85e5d14dc75502000000d2facf401dd116152a1b04b598dce566829654e8d2d86125f2e366d41541dbf103000000062d6baf59c5e1feb6273f4a8c4819b0b5da5880337a3a37e3cb99f0184866eb",
    "210000000c0200000000000000030000005b000000001000000000000080000000000000000000000003000000010000008ec9934fce793e46c1bf6168d179a71992e061908b97c6e13085b92eea8d98fd0200000054557b8762a1d6819ec29604ab232d16697b213f970c45faf14db9e90729749f03000000b8264b91e50c6c2276d3a01e292b0acdcd0ffabc8ae039c9e86eb7a0e6f782a4",
    "050000000d0900000000000000030000000100000036f787cf325d7c84561047929aedda2a1c8e637098ff1a1e941a4f547a5f357202000000623a4f10be02fbe31f337f54569c3c8166c375f65699611f0768d9472e080d0703000000fd7ee5a6b29f6bd389729a8bee90fbe2b4e6842dc13720794d750caa06733608",
    "190000000e010000004d000000108002000000000004000000000000000000000003000000010000009c8725b4a5456dec28780bf453328ae3a7aeac9485cc5c95d6bee7a920ecfd3a02000000e69f1aefa29bee8c252bcb8f6fb7b6f4428c12078f912458b56a514e53b27484030000004c3db5340f06b92cd67f72c4b8f6c25dba538ce1022d686206f79565755e0f9e",
];
const CHECKPOINT_PAYLOAD: &str = "400000000000000058020000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fa000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fa000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f505152535455565758595a5b5c5d5e5f606102000000640000000700000000000000020000006f6b65000000090000000000000000000000";
const MANIFEST: &str = "40000000000000008a02000000000000030000004ea84987cf96ef6cb8a02c2d16d898b7fc158d17400d0753db662426755f0c9f58e4ff86e0c1959c198a3092960014d02e7bbf94ca7d97441d412117fa1379e193ab8eb15a17513cd0530258d83e00eac4a25fc696e6ee3b5bc64e25cbe6bfff";
const WAL_FRAME: &str = "5200000059f575e9070000000000000027a75a1c9d8f31b0bc4ca4889e25fe6413f00d78d8578a36e4cce1c38c452e45020000000a0000000100000000000000030000000102030b000000020000000000000003000000010203";
const KV_OPS: [&str; 3] = ["00010000006b", "01010000006b0100000076", "02010000006b"];
const KV_SERVICE_SNAPSHOT: &str = "03000000000000000100000001000000620100000032";
const KV_STORE_SNAPSHOT: &str = "030000000000000008000000000000000100000001000000620100000032";
const TRANSACTIONS: [&str; 3] = [
    "0005000000616c69636503000000626f622a00000000000000",
    "010800000070616c6c65742d3907000000666163746f72790900000077617265686f7573650700000068616d62757267",
    "0205000000616c696365e803000000000000",
];

#[test]
fn message_bodies_are_pinned() {
    for (msg, lit) in messages().iter().zip(MESSAGES) {
        assert_eq!(hex(&msg.encode()), lit, "{}", msg.kind());
        assert_eq!(Message::decode(&unhex(lit)).as_ref(), Ok(msg));
    }
}

#[test]
fn signed_envelopes_are_pinned() {
    let sender = KeyTable::new(0, DOMAIN_SECRET);
    let receiver = KeyTable::new(2, DOMAIN_SECRET);
    for (msg, lit) in messages().iter().zip(SIGNED) {
        let signed = SignedMessage::create(msg, &sender, &[1, 2, 3]);
        assert_eq!(hex(&signed.encode()), lit, "{}", msg.kind());
        let back = SignedMessage::decode(&unhex(lit)).expect("pinned envelope decodes");
        assert_eq!(back, signed);
        assert_eq!(
            back.verify_and_decode(&receiver).as_ref(),
            Ok(&Some(msg.clone()))
        );
    }
}

#[test]
fn sealing_and_opening_agree_with_the_owned_form() {
    // `seal` and `Envelope::open`, `SignedMessage::create` and
    // `verify_and_decode` follow one rule for the bytes a MAC covers: they
    // write the same envelope and agree on it intact, with any one body
    // byte flipped, and at a node it was not sealed for.
    let sender = KeyTable::new(0, DOMAIN_SECRET);
    let receiver = KeyTable::new(2, DOMAIN_SECRET);
    let stranger = KeyTable::new(7, DOMAIN_SECRET);
    for msg in messages() {
        let wire = msg.seal(&sender, &[1, 2, 3]);
        let signed = SignedMessage::create(&msg, &sender, &[1, 2, 3]);
        assert_eq!(wire, signed.encode(), "{}", msg.kind());
        let agree = |wire: &[u8], keys: &KeyTable| {
            let opened = Envelope::parse(wire).unwrap().open(keys);
            let owned = SignedMessage::decode(wire).unwrap().verify_and_decode(keys);
            assert_eq!(opened, owned, "{}", msg.kind());
            opened
        };
        assert_eq!(agree(&wire, &receiver), Ok(Some(msg.clone())));
        assert_eq!(agree(&wire, &stranger), Ok(None), "{}", msg.kind());
        for i in 4..4 + msg.encode().len() {
            let mut flipped = wire.clone();
            flipped[i] ^= 0x01;
            assert_ne!(agree(&flipped, &receiver), Ok(Some(msg.clone())));
        }
    }
}

fn checkpoint_payload() -> CheckpointPayload {
    CheckpointPayload {
        seq: 64,
        service_snapshot: (0..600).map(|i| (i % 251) as u8).collect(),
        clients: vec![(100, 7, b"ok".to_vec()), (101, 9, Vec::new())],
    }
}

#[test]
fn checkpoint_payload_and_manifest_are_pinned() {
    let payload = checkpoint_payload();
    let bytes = payload.encode();
    assert_eq!(hex(&bytes), CHECKPOINT_PAYLOAD);
    assert_eq!(
        CheckpointPayload::decode(&unhex(CHECKPOINT_PAYLOAD)),
        Some(payload)
    );

    let store = CheckpointStore::build(64, bytes);
    assert_eq!(hex(store.manifest()), MANIFEST);
    let manifest = unhex(MANIFEST);
    let m = Manifest::verify_and_decode(&manifest, 64, Digest::of(&manifest))
        .expect("pinned manifest decodes");
    assert_eq!(store.root(), Digest::of(&manifest));
    assert_eq!(m.seq, 64);
    assert_eq!(m.total_len, store.bytes().len() as u64);
    assert_eq!(m.chunks.len() as u32, store.num_chunks());
    for (i, d) in m.chunks.iter().enumerate() {
        assert_eq!(*d, Digest::of(store.chunk(i as u32).expect("in range")));
    }
}

#[test]
fn wal_frame_is_pinned() {
    let frame = WalFrame {
        seq: 7,
        digest: Digest::of(b"wal"),
        requests: vec![req(10, 1), req(11, 2)],
    };
    assert_eq!(hex(&encode_frame(&frame)), WAL_FRAME);
    let scan = scan_frames(&unhex(WAL_FRAME));
    assert_eq!(scan.frames, vec![frame]);
    assert!(!scan.truncated);
}

fn kv_ops() -> [KvOp; 3] {
    [
        KvOp::Get(b"k".to_vec()),
        KvOp::Put(b"k".to_vec(), b"v".to_vec()),
        KvOp::Del(b"k".to_vec()),
    ]
}

#[test]
fn kv_ops_are_pinned() {
    for (op, lit) in kv_ops().into_iter().zip(KV_OPS) {
        assert_eq!(hex(&op.encode()), lit, "{op:?}");
        assert_eq!(KvOp::decode(&unhex(lit)), Some(op));
    }
}

/// The same three operations through either service, so both snapshots
/// hold version 3 and the one key `b`.
fn apply_script(service: &mut dyn StateMachine) {
    for op in [
        KvOp::Put(b"a".to_vec(), b"1".to_vec()),
        KvOp::Put(b"b".to_vec(), b"2".to_vec()),
        KvOp::Del(b"a".to_vec()),
    ] {
        service.apply(&Request {
            client: 9,
            timestamp: 1,
            payload: op.encode(),
        });
    }
}

#[test]
fn kv_service_snapshots_are_pinned() {
    let mut kv = KvService::default();
    apply_script(&mut kv);
    assert_eq!(hex(&kv.snapshot()), KV_SERVICE_SNAPSHOT);
    let mut back = KvService::default();
    assert!(back.restore(&unhex(KV_SERVICE_SNAPSHOT)));
    assert_eq!(back.state_digest(), kv.state_digest());
    assert_eq!(back.get(b"b"), Some(&b"2".to_vec()));

    let mut store = KvStoreService::new(8);
    apply_script(&mut store);
    assert_eq!(hex(&store.snapshot()), KV_STORE_SNAPSHOT);
    let mut back = KvStoreService::new(2);
    assert!(back.restore(&unhex(KV_STORE_SNAPSHOT)));
    assert_eq!(back.capacity(), 8);
    assert_eq!(back.state_digest(), store.state_digest());
    assert_eq!(back.get(b"b"), Some(&b"2".to_vec()));
}

fn transactions() -> [Transaction; 3] {
    [
        Transaction::transfer("alice", "bob", 42),
        Transaction::shipment("pallet-9", "factory", "warehouse", "hamburg"),
        Transaction::mint("alice", 1_000),
    ]
}

#[test]
fn transactions_are_pinned() {
    for (tx, lit) in transactions().into_iter().zip(TRANSACTIONS) {
        assert_eq!(hex(&tx.encode()), lit, "{tx:?}");
        assert_eq!(Transaction::decode(&unhex(lit)), Some(tx));
    }
}
