package cloud

import (
	"crypto/x509"
	"encoding/json"
	"encoding/pem"
	"fmt"
	"os"
	"time"

	"sos/internal/id"
	"sos/internal/pki"
)

// credFile is the on-disk JSON form of Credentials. The private key is
// PEM-encoded SEC 1 DER; certificates are PEM-encoded X.509 DER. A
// credentials file is what a daemon like sosd loads instead of talking to
// the cloud: pre-provisioning it is the "one-time infrastructure
// requirement" done ahead of deployment.
type credFile struct {
	Handle  string `json:"handle"`
	User    string `json:"user"`
	KeyPEM  string `json:"key_pem"`
	CertPEM string `json:"cert_pem"`
	RootPEM string `json:"root_pem"`
}

// Marshal serializes the credentials for storage. The result contains
// the identity's private key: treat it like one.
func (c *Credentials) Marshal() ([]byte, error) {
	if c.Ident == nil || c.Cert == nil {
		return nil, fmt.Errorf("cloud: credentials missing identity or certificate")
	}
	keyDER, err := x509.MarshalECPrivateKey(c.Ident.Key)
	if err != nil {
		return nil, fmt.Errorf("cloud: marshaling identity key: %w", err)
	}
	f := credFile{
		Handle:  c.Handle,
		User:    c.Ident.User.String(),
		KeyPEM:  string(pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})),
		CertPEM: string(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: c.Cert.DER})),
		RootPEM: string(pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: c.RootDER})),
	}
	return json.MarshalIndent(f, "", "  ")
}

// unmarshalCredentials parses credentials produced by Marshal, verifying
// that the certificate chains to the bundled root and binds the stored
// key and user identifier.
func unmarshalCredentials(data []byte) (*Credentials, error) {
	var f credFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("cloud: parsing credentials file: %w", err)
	}
	user, err := id.ParseUserID(f.User)
	if err != nil {
		return nil, fmt.Errorf("cloud: credentials user id: %w", err)
	}
	keyDER, err := pemBytes(f.KeyPEM, "EC PRIVATE KEY")
	if err != nil {
		return nil, err
	}
	key, err := x509.ParseECPrivateKey(keyDER)
	if err != nil {
		return nil, fmt.Errorf("cloud: parsing identity key: %w", err)
	}
	certDER, err := pemBytes(f.CertPEM, "CERTIFICATE")
	if err != nil {
		return nil, err
	}
	rootDER, err := pemBytes(f.RootPEM, "CERTIFICATE")
	if err != nil {
		return nil, err
	}
	verifier, err := pki.NewVerifier(rootDER, time.Now)
	if err != nil {
		return nil, fmt.Errorf("cloud: credentials root: %w", err)
	}
	cert, err := verifier.VerifyFor(certDER, user)
	if err != nil {
		return nil, fmt.Errorf("cloud: credentials certificate: %w", err)
	}
	if !key.PublicKey.Equal(cert.Key) {
		return nil, fmt.Errorf("cloud: credentials key does not match the certified key")
	}
	return &Credentials{
		Handle:  f.Handle,
		Ident:   &id.Identity{User: user, Key: key},
		Cert:    cert,
		RootDER: rootDER,
	}, nil
}

// SaveCredentials writes the credentials to path with owner-only
// permissions (the file holds a private key).
func SaveCredentials(c *Credentials, path string) error {
	data, err := c.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o600); err != nil {
		return fmt.Errorf("cloud: writing credentials: %w", err)
	}
	return nil
}

// LoadCredentials reads credentials written by SaveCredentials.
func LoadCredentials(path string) (*Credentials, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cloud: reading credentials: %w", err)
	}
	return unmarshalCredentials(data)
}

// pemBytes decodes one PEM block of the expected type.
func pemBytes(s, wantType string) ([]byte, error) {
	block, _ := pem.Decode([]byte(s))
	if block == nil || block.Type != wantType {
		return nil, fmt.Errorf("cloud: credentials file lacks a %s PEM block", wantType)
	}
	return block.Bytes, nil
}
